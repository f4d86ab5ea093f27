// Shared infrastructure for the per-figure benchmark binaries.
//
// Every bench regenerates one table or figure from the paper's evaluation:
// same workloads, same parameter sweeps, same reported series. Repetitions
// default to 5 seeds (the paper used 9; override with ASPEN_BENCH_RUNS).

#ifndef ASPEN_BENCH_BENCH_UTIL_H_
#define ASPEN_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/report.h"
#include "join/types.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace aspen {
namespace benchutil {

/// The five sigma_s : sigma_t ratio stages of Figures 2-4 and 8-11.
struct Ratio {
  double sigma_s;
  double sigma_t;
  const char* label;
};

inline const std::vector<Ratio>& Ratios() {
  static const std::vector<Ratio> kRatios = {
      {0.1, 1.0, "1/10:1"},       {1.0 / 6, 0.5, "1/6:1/2"},
      {0.5, 0.5, "1/2:1/2"},      {0.5, 1.0 / 6, "1/2:1/6"},
      {1.0, 0.1, "1:1/10"},
  };
  return kRatios;
}

/// The join-selectivity sweep of Figures 2-3 and 9(b).
struct JoinSel {
  double value;
  const char* label;
};

inline const std::vector<JoinSel>& JoinSels() {
  static const std::vector<JoinSel> kSels = {
      {0.2, "20%"}, {0.1, "10%"}, {0.05, "5%"}};
  return kSels;
}

/// One algorithm configuration as it appears in the paper's legends.
struct AlgoSpec {
  join::Algorithm algo;
  join::InnetFeatures features;
  std::string Name() const { return join::AlgorithmName(algo, features); }
};

/// The legend of Figures 2-3: Naive, Base, GHT, Innet, Innet-cmg,
/// Innet-cmpg.
inline std::vector<AlgoSpec> Figure2Algos() {
  return {
      {join::Algorithm::kNaive, {}},
      {join::Algorithm::kBase, {}},
      {join::Algorithm::kGht, {}},
      {join::Algorithm::kInnet, join::InnetFeatures::None()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cmg()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cmpg()},
  };
}

// ---- environment -------------------------------------------------------------
//
// Every environment variable a bench reads as a setting, in one table. A
// set variable must parse completely — an integer no smaller than its
// minimum, or one of its words — or the bench exits with status 2 naming
// the variable; an unset or empty variable takes the caller's default.
// (ASPEN_STATS_OUT, a file path, is read by DeterminismLog below.)

enum class Env {
  kRuns,      ///< ASPEN_BENCH_RUNS: repetitions per configuration
  kCycles,    ///< ASPEN_BENCH_CYCLES: sampling cycles per run
  kShards,    ///< ASPEN_SHARDS: RunKnobs::shards
  kReopt,     ///< ASPEN_REOPT: RunKnobs::reopt_interval (0 = off)
  kTreeMode,  ///< ASPEN_TREE_MODE: per_source | shared
};

struct EnvSpec {
  const char* name;
  int min;
  /// Word-valued variables: the accepted words, parsed to their index.
  std::vector<const char*> words;
};

inline const EnvSpec& SpecOf(Env var) {
  static const EnvSpec kSpecs[] = {
      {"ASPEN_BENCH_RUNS", 1, {}},
      {"ASPEN_BENCH_CYCLES", 1, {}},
      {"ASPEN_SHARDS", 1, {}},
      {"ASPEN_REOPT", 0, {}},
      {"ASPEN_TREE_MODE", 0, {"per_source", "shared"}},
  };
  return kSpecs[static_cast<int>(var)];
}

/// The value of `var`, or `default_value` when it is unset or empty.
inline int FromEnv(Env var, int default_value) {
  const EnvSpec& spec = SpecOf(var);
  const char* text = std::getenv(spec.name);
  if (text == nullptr || *text == '\0') return default_value;
  if (!spec.words.empty()) {
    std::string expected;
    for (size_t i = 0; i < spec.words.size(); ++i) {
      if (std::strcmp(text, spec.words[i]) == 0) return static_cast<int>(i);
      expected += (i == 0 ? "" : " | ") + std::string(spec.words[i]);
    }
    std::fprintf(stderr, "fatal: %s=%s: expected %s\n", spec.name, text,
                 expected.c_str());
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < spec.min ||
      v > INT_MAX) {
    std::fprintf(stderr, "fatal: %s=%s: expected an integer >= %d\n",
                 spec.name, text, spec.min);
    std::exit(2);
  }
  return static_cast<int>(v);
}

/// The one place bench binaries resolve the run-shape environment:
/// ASPEN_SHARDS, ASPEN_REOPT and ASPEN_TREE_MODE compose into the RunKnobs
/// every ExecutorOptions / MediumOptions embeds.
inline common::RunKnobs KnobsFromEnv() {
  common::RunKnobs knobs;
  knobs.shards = FromEnv(Env::kShards, knobs.shards);
  knobs.reopt_interval = FromEnv(Env::kReopt, knobs.reopt_interval);
  knobs.tree_mode = FromEnv(Env::kTreeMode, 0) == 1
                        ? common::TreeMode::kShared
                        : common::TreeMode::kPerSource;
  return knobs;
}

inline join::ExecutorOptions MakeOptions(
    const AlgoSpec& spec, const workload::SelectivityParams& assumed,
    bool mesh = false) {
  join::ExecutorOptions opts;
  opts.algorithm = spec.algo;
  opts.features = spec.features;
  opts.assumed = assumed;
  opts.mesh_mode = mesh;
  opts.knobs = KnobsFromEnv();
  return opts;
}

/// Turns on the Section 6 adaptive loop with the settings of the paper's
/// learning figures: re-estimate every 25 of the query's cycles, reset the
/// estimator counters every 200. Overrides ASPEN_REOPT.
inline void EnableLearning(join::ExecutorOptions* opts) {
  opts->knobs.reopt_interval = 25;
  opts->knobs.counter_reset_interval = 200;
}

/// The paper's standard 100-node, ~7-neighbor evaluation topology.
inline net::Topology PaperTopology(uint64_t seed = 42) {
  auto topo = net::Topology::Random(100, 7.0, seed);
  if (!topo.ok()) {
    std::fprintf(stderr, "fatal: %s\n", topo.status().ToString().c_str());
    std::abort();
  }
  return std::move(*topo);
}

/// Dies on error — bench binaries have no graceful recovery path.
template <typename T>
T OrDie(Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "fatal: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).ValueOrDie();
}

inline void OrDie(Status s) {
  if (!s.ok()) {
    std::fprintf(stderr, "fatal: %s\n", s.ToString().c_str());
    std::abort();
  }
}

inline void PrintHeader(const char* figure, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("==============================================================\n");
}

// ---- machine-readable bench output ------------------------------------------
//
// Perf-trajectory plumbing: benches emit a flat JSON file
// (BENCH_<name>.json) of {bench: {metric: value}} so future changes can be
// compared against committed numbers without scraping console output.
// Typical metrics: cycles_per_sec, ns_per_cycle, bytes, allocs_per_cycle.

/// \brief Collects named numeric metrics and writes them as JSON.
///
/// Each run writes its own file from scratch; a caller that compares runs
/// (the CI throughput matrix) reads each run's entry right after that run.
/// Add() replaces the value of a metric that is already present.
class JsonReport {
 public:
  explicit JsonReport(std::string path) : path_(std::move(path)) {}

  void Add(const std::string& bench, const std::string& metric,
           double value) {
    for (auto& [name, metrics] : entries_) {
      if (name == bench) {
        for (auto& [key, old] : metrics) {
          if (key == metric) {
            old = value;
            return;
          }
        }
        metrics.emplace_back(metric, value);
        return;
      }
    }
    entries_.push_back({bench, {{metric, value}}});
  }

  /// Writes the collected metrics; returns false (and warns) on I/O error.
  bool Write() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "  \"%s\": {", entries_[i].name.c_str());
      const auto& metrics = entries_[i].metrics;
      for (size_t j = 0; j < metrics.size(); ++j) {
        std::fprintf(f, "%s\"%s\": %.6g", j == 0 ? "" : ", ",
                     metrics[j].first.c_str(), metrics[j].second);
      }
      std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path_.c_str());
    return true;
  }

 private:
  struct Entry {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };

  std::string path_;
  std::vector<Entry> entries_;
};

// ---- determinism digest ------------------------------------------------------
//
// The CI determinism gate runs a bench at several shard counts and compares
// outputs byte for byte. Benches whose stdout contains timing write the
// deterministic subset of their results here instead: key=value lines to
// the file named by ASPEN_STATS_OUT (no-op when the variable is unset).

/// FNV-1a fingerprint of the complete per-node traffic table: any
/// divergence in any node's counters changes the digest.
inline uint64_t TrafficFingerprint(const net::TrafficStats& s) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (net::NodeId id = 0; id < s.num_nodes(); ++id) {
    const net::NodeTraffic& t = s.node(id);
    mix(t.bytes_sent);
    mix(t.bytes_received);
    mix(t.messages_sent);
    mix(t.messages_received);
  }
  return h;
}

/// \brief key=value lines of deterministic run quantities.
class DeterminismLog {
 public:
  DeterminismLog() {
    const char* env = std::getenv("ASPEN_STATS_OUT");
    if (env != nullptr) path_ = env;
  }

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& key, uint64_t value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    lines_ += key + "=" + buf + "\n";
  }

  /// Doubles are logged as raw bit patterns: the gate checks bit equality,
  /// not approximate equality.
  void AddDoubleBits(const std::string& key, double value) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
    std::memcpy(&bits, &value, sizeof(bits));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    lines_ += key + "=0x" + buf + "\n";
  }

  bool Write() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "DeterminismLog: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fputs(lines_.c_str(), f);
    std::fclose(f);
    return true;
  }

 private:
  std::string path_;
  std::string lines_;
};

/// \brief Strips `--smoke` from argv; returns true when it was present.
/// Smoke mode is a CI-facing fast pass: benches shrink their workloads so a
/// full run finishes in seconds while still exercising every code path.
inline bool ConsumeSmokeFlag(int* argc, char** argv) {
  bool smoke = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return smoke;
}

}  // namespace benchutil
}  // namespace aspen

#endif  // ASPEN_BENCH_BENCH_UTIL_H_
