// Process and host probes: CPU time, peak RSS, CPU steal, machine fingerprint.
#ifndef PERFBENCH_DRIVER_HOST_H_
#define PERFBENCH_DRIVER_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

// CPU time of every thread of this process, in seconds.
double ProcessCpuSeconds();
// High-water resident set size of this process, in MB.
double PeakRssMb();
// Cumulative steal ticks over all CPUs (/proc/stat); -1 when unreadable.
int64_t StealTicks();
// {"nproc": ..., "cpu_model": "...", "kernel": "..."} as a JSON object.
std::string FingerprintJson();
int NumCpus();
// `s` escaped for use inside a JSON string.
std::string JsonEscape(const std::string& s);
// Restricts this thread, and every thread it creates later, to the CPU it is
// running on. Returns that CPU, or -1 on failure.
int PinToCurrentCpu();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_HOST_H_
