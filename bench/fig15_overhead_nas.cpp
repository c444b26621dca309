/// \file fig15_overhead_nas.cpp
/// \brief Reproduces paper Fig. 15: relative overhead of online
/// instrumentation (1:1 writer/reader ratio) for NAS benchmarks and
/// EulerMHD across process counts, plus the §IV-C Bi table.
///
/// Paper reference points (Tera 100): every overhead < 25%; class C
/// benchmarks show larger overheads than class D because their
/// instrumentation-data bandwidth Bi = (total event size / execution
/// time) is higher — e.g. Bi(SP.C) = 2.37 GB/s vs Bi(SP.D) = 334.99 MB/s
/// at 900 cores.
///
///   ESP_FIG15_BENCH_JSON=out.json ./fig15_overhead_nas
///       additionally writes one {"workload","procs","ref_walltime",
///       "inst_walltime","events"} record per cell, the input of
///       tools/bench_gate.py --bench fig15 (baseline
///       bench/BENCH_fig15.baseline.json, default scale).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench_util.hpp"

using namespace esp;

namespace {

struct Series {
  nas::Benchmark bench;
  nas::ProblemClass cls;
  int iterations;
};

struct Cell {
  std::string workload;
  int procs = 0;
  double ref_walltime = 0.0;
  double inst_walltime = 0.0;
  std::uint64_t events = 0;
};

bool write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"schema\": 1,\n  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"workload\":\"%s\",\"procs\":%d,"
                  "\"ref_walltime\":%.9f,\"inst_walltime\":%.9f,"
                  "\"events\":%llu}%s\n",
                  c.workload.c_str(), c.procs, c.ref_walltime,
                  c.inst_walltime, static_cast<unsigned long long>(c.events),
                  i + 1 < cells.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main() {
  const auto machine = net::MachineConfig::tera100();
  const bool full = full_scale();

  const std::vector<Series> series = {
      {nas::Benchmark::BT, nas::ProblemClass::C, 12},
      {nas::Benchmark::BT, nas::ProblemClass::D, 6},
      {nas::Benchmark::CG, nas::ProblemClass::C, 12},
      {nas::Benchmark::FT, nas::ProblemClass::C, 2},
      {nas::Benchmark::LU, nas::ProblemClass::C, 8},
      {nas::Benchmark::LU, nas::ProblemClass::D, 4},
      {nas::Benchmark::SP, nas::ProblemClass::C, 12},
      {nas::Benchmark::SP, nas::ProblemClass::D, 6},
      {nas::Benchmark::EulerMHD, nas::ProblemClass::D, 10},
  };
  const std::vector<int> targets =
      full ? std::vector<int>{64, 144, 256, 576, 900, 1156}
           : std::vector<int>{16, 64, 144, 256};

  std::cout << "Fig 15 — relative online-instrumentation overhead, 1:1 "
               "ratio (machine: "
            << machine.name << ")\n\n";
  Table table({"workload", "procs", "ref_time", "inst_time", "overhead_%",
               "Bi"});
  std::vector<std::vector<std::string>> csv;
  std::vector<Cell> cells;

  for (const auto& s : series) {
    for (int target : targets) {
      const int nprocs = nas::nearest_valid_nprocs(s.bench, target);
      if (nprocs < 4) continue;
      // FT moves its whole grid every iteration; skip the host-hostile
      // small-scale points (the paper plots FT.C at larger scales too).
      if (s.bench == nas::Benchmark::FT && nprocs < 64) continue;
      nas::WorkloadParams p{s.bench, s.cls, 0};
      const auto ref = benchutil::run_workload(
          p, nprocs, baseline::ToolKind::Reference, 1, machine, s.iterations);
      const auto inst = benchutil::run_workload(
          p, nprocs, baseline::ToolKind::OnlineCoupling, 1, machine,
          s.iterations);
      const double ov = benchutil::overhead_percent(inst.app_walltime,
                                                    ref.app_walltime);
      const double bi =
          static_cast<double>(inst.events) * sizeof(inst::Event) /
          std::max(1e-9, inst.app_walltime);
      const std::string label = nas::workload_label(s.bench, s.cls);
      table.row(label, nprocs, format_time(ref.app_walltime),
                format_time(inst.app_walltime), ov, format_bandwidth(bi));
      csv.push_back({label, std::to_string(nprocs),
                     std::to_string(ref.app_walltime),
                     std::to_string(inst.app_walltime), std::to_string(ov),
                     std::to_string(bi)});
      cells.push_back({label, nprocs, ref.app_walltime, inst.app_walltime,
                       inst.events});
    }
  }
  table.print(std::cout);
  std::cout << "\npaper check: overheads < 25%; class C > class D (Bi "
               "correlation)"
            << std::endl;
  esp::write_csv(benchutil::results_dir() + "/fig15_overhead_nas.csv",
                 {"workload", "procs", "ref_s", "inst_s", "overhead_pct",
                  "bi_bytes_per_s"},
                 csv);
  const char* json = std::getenv("ESP_FIG15_BENCH_JSON");
  if (json != nullptr && *json != '\0') {
    if (!write_json(json, cells)) {
      std::cerr << "cannot write " << json << "\n";
      return 2;
    }
    std::cout << "-> " << json << std::endl;
  }
  return 0;
}
