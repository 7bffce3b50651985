#include "perfbench/driver/host.h"

#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t StealTicks() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) {
    return -1;
  }
  std::istringstream fields(line.substr(4));
  int64_t value = -1;
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> value)) {
      return -1;
    }
  }
  return value;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

int NumCpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) {
    return -1;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

std::string FingerprintJson() {
  utsname uts{};
  std::string kernel = "unknown";
  if (uname(&uts) == 0) {
    kernel = std::string(uts.sysname) + " " + uts.release;
  }
  return "{\"nproc\": " + std::to_string(NumCpus()) + ", \"cpu_model\": \"" +
         JsonEscape(CpuModel()) + "\", \"kernel\": \"" + JsonEscape(kernel) +
         "\"}";
}

}  // namespace perfbench
