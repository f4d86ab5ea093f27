// The one definition of the run-shape knobs shared by every options struct.
//
// ExecutorOptions (one query on an owned network), MediumOptions (a shared
// medium hosting many queries) and, transitively, core::ExperimentOptions /
// core::ServiceOptions embed one RunKnobs, so a knob — shard count,
// sampling clock, re-optimization period, tree mode — exists in exactly one
// place, and the bench binaries resolve it from the environment in exactly
// one helper (benchutil::KnobsFromEnv: ASPEN_SHARDS / ASPEN_REOPT /
// ASPEN_TREE_MODE).

#ifndef ASPEN_COMMON_RUN_KNOBS_H_
#define ASPEN_COMMON_RUN_KNOBS_H_

namespace aspen {
namespace common {

/// \brief Multicast tree construction policy for producer result routes.
enum class TreeMode {
  /// One tree per producer per query, built from that query's explored
  /// path segments — the historical behavior and the default.
  kPerSource,
  /// KMB-approximation shared Steiner trees: the tree depends only on
  /// (root, destination set), so co-resident queries with overlapping
  /// destination sets intern one refcounted tree via the RouteTable's
  /// content-addressed destination-set lookup. Also enables common
  /// sub-join placement sharing in SharedMedium (DESIGN.md "Cross-query
  /// work sharing").
  kShared,
};

/// \brief Run-shape knobs shared by executor, medium and experiment options.
struct RunKnobs {
  /// Spatial shard count: K > 1 partitions the node space into K contiguous
  /// id ranges, each stepped by its own worker thread, with cross-shard
  /// effects merged in canonical content order — observable output is
  /// byte-identical for every K (DESIGN.md "Sharded execution"). The
  /// scheduler clamps the count to [1, node count].
  int shards = 1;

  /// Transmission cycles per sampling cycle — the sampling clock of a
  /// shared medium's scheduler. Every query admitted to a medium must
  /// declare the same `window.sample_interval`. Owned-network executors
  /// take the clock from their query instead and ignore this field.
  int sample_interval = 100;

  /// Continuous re-optimization period, in sampling cycles: every
  /// `reopt_interval` cycles the executor re-estimates selectivities from
  /// live traffic and, where the estimate diverged past `reopt_threshold`,
  /// re-runs the cost model and executes a planned placement migration
  /// (DESIGN.md "Continuous re-optimization"). 0 disables the loop — the
  /// plan stays frozen at admission, the pre-reopt behavior.
  int reopt_interval = 0;

  /// Relative divergence between a live estimate and the estimate the
  /// current placement was chosen with that arms a re-optimization pass
  /// for a pair. The paper's Section 6 trigger: 33%.
  double reopt_threshold = 0.33;

  /// Producer multicast tree policy (ASPEN_TREE_MODE: "per_source" |
  /// "shared"). kShared turns on both shared Steiner trees and
  /// cross-query placement sharing; kPerSource is byte-identical to the
  /// pre-sharing behavior.
  TreeMode tree_mode = TreeMode::kPerSource;
};

}  // namespace common
}  // namespace aspen

#endif  // ASPEN_COMMON_RUN_KNOBS_H_
