// Declarative scenario engine: one spec format drives every figure/table
// sweep, the CLI, and sharded runs.
//
// A scenario is a small INI-style text file (see bench/scenarios/*.scn and
// the README's "Scenario files" section) parsed by util/kvconfig into a
// ScenarioSpec: deployment shape, localizer(s), metrics, attack classes,
// damage/compromise/density sweeps, sample counts, seed, and FP budget.
// The ScenarioRunner expands the spec's cartesian product into an ordered
// list of work items and executes them through the existing Pipeline /
// experiment entry points (which fan out per network via
// parallel_for_items), emitting item-tagged result tables.
//
// Sharding: every work item derives its randomness from the spec's seed
// through Philox-style (experiment, trial) keyed sub-streams (rng/rng.h),
// never from execution order, so item results are placement-independent.
// `lad_cli run --shard i/n` executes the items with id % n == i; the
// shard CSVs carry the item tag, and `lad_cli merge` re-orders rows by it,
// reproducing the unsharded output byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/deployment_model.h"
#include "sim/pipeline.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/kvconfig.h"

namespace lad {

/// Experiment families (the paper's Section 7 grid plus the repo's
/// extensions); each has one entry in the kind table, sim/scenario_kinds.h.
enum class ExperimentKind {
  kRoc,                   ///< ROC curves over metric x attack x damage (Figs. 4-6)
  kDrSweep,               ///< trained-threshold DR sweeps (Figs. 7/8, tabs)
  kDensitySweep,          ///< re-deploy per density m (Fig. 9)
  kDeploymentPdf,         ///< the deployment pdf surface (Fig. 2)
  kGzAccuracy,            ///< g(z) table resolution ablation
  kCorrection,            ///< trimmed-ML location correction table
  kEchoComparison,        ///< LAD vs the Echo protocol
  kMetricFusion,          ///< attacker-vs-detector fusion matrix
  kMmseVulnerability,     ///< MMSE / DV-Hop single-anchor lies
  kThresholdSensitivity,  ///< tau + miscalibration sweeps
  kTimeEvolving,          ///< attacker corrupts k more beacons each round
  kInNetwork,             ///< neighbors exchange verdicts, local majority
};

const char* experiment_kind_name(ExperimentKind kind);

/// How the two deployment-mismatch axes (actual_sigmas x jitters) combine:
/// kAxes varies one axis at a time (first value of the other axis held),
/// kProduct takes the full cartesian product.
enum class MismatchCoupling { kAxes, kProduct };

/// Threshold-training mode axis for dr-sweep: one pooled threshold for the
/// whole field, or boundary groups fitted separately on their own benign
/// buckets (min-samples fallback to the pooled value).
enum class GroupThresholdMode { kGlobal, kPerGroup };

/// Reduced sample counts applied in quick (CI smoke) mode; every field is
/// optional so specs only override what matters for their kind.
struct QuickOverrides {
  std::optional<int> networks;
  std::optional<int> victims;
  std::optional<int> m;
  std::optional<int> trials;
  std::optional<int> dvhop_trials;
  std::vector<int> densities;  ///< empty = keep the full density list
};

/// A member's initializer is the default of the `.scn` key that fills it
/// (sim/scenario_kinds.h lists the keys), except for the seed, 20050404.
struct ScenarioSpec {
  // [scenario]
  std::string name;
  std::string title;
  std::string note;  ///< printed after the tables (the paper's findings)
  ExperimentKind kind = ExperimentKind::kDrSweep;

  // [pipeline] - base deployment / sampling configuration
  PipelineConfig pipeline;

  // [quick]
  QuickOverrides quick;

  // [sweep] axes (unused axes keep their single-element defaults)
  std::vector<DeploymentShape> shapes;  ///< empty: {pipeline.shape}
  std::vector<std::string> localizers = {"beaconless-mle"};  ///< see below
  std::vector<MetricKind> metrics = {MetricKind::kDiff};
  std::vector<AttackClass> attacks = {AttackClass::kDecBounded};
  std::vector<double> damages = {120.0};
  std::vector<double> compromised = {0.10};
  std::vector<int> densities;
  std::vector<double> actual_sigmas = {0.0};
  std::vector<double> jitters = {0.0};
  MismatchCoupling mismatch_coupling = MismatchCoupling::kAxes;
  /// dr-sweep only: `group_thresholds = global, per_group` sweeps both
  /// training modes; when per_group appears, the dr table grows
  /// boundary/interior DR+FP split columns.  Never empty (the runner
  /// iterates it as an axis).
  std::vector<GroupThresholdMode> group_threshold_modes = {
      GroupThresholdMode::kGlobal};

  // [detector]
  double fp_budget = 0.01;  ///< trained-threshold experiments
  double tau = 0.99;        ///< quantile-trained experiments (fusion etc.)
  /// Per-group benign-bucket floor for the per_group mode; buckets below
  /// it keep the pooled threshold.
  int group_min_samples = 100;
  /// Path to a saved detector bundle (core/serialize.h); when set, the
  /// metric-fusion experiment takes its thresholds from the artifact
  /// instead of training them inline.  Only valid for metric-fusion.
  std::string bundle;

  // [run]
  /// Independent work items executed concurrently (1 = sequential).  Rows
  /// are buffered per item and emitted in item order, so output CSVs are
  /// byte-identical at any jobs count.  Effective thread usage is roughly
  /// jobs x pipeline.threads; the shared pool keeps oversubscription from
  /// spawning jobs*threads OS threads.
  int jobs = 1;

  // [output]
  /// ROC summary columns: DR at each of these FP rates.
  std::vector<double> fp_grid = {0.01, 0.02, 0.05, 0.1, 0.2, 0.5};
  int curve_points = 60;        ///< max ROC curve rows per item; 0 = omit
  bool loc_error = false;       ///< add a localization-error column (dr-sweep)

  // [correction] / [echo] / [gz] / [mmse] / [threshold] / [pdf]
  int trials = 300;
  int pdf_grid = 13;
  std::vector<int> omegas = {8, 16, 32, 64, 128, 256, 512, 1024, 4096};
  std::vector<double> lies = {0, 100, 200, 400, 800, 1600, 3200};
  std::vector<double> dvhop_lies = {0, 400, 1600};
  int dvhop_trials = 100;
  int echo_grid_x = 4;
  int echo_grid_y = 4;
  double echo_range = 200.0;
  std::vector<double> taus = {0.90, 0.95, 0.99, 0.999};
  std::vector<double> fudges = {0.5, 0.75, 1.0, 1.25, 1.5, 2.0};

  // [evolve] - time-evolving compromise: the attacker corrupts
  // `initial + round * step` beacons in round 0..rounds-1.
  int evolve_rounds = 8;
  int evolve_step = 2;
  int evolve_initial = 0;

  // [coop] - in-network detection: nodes within `radius` of a claimed
  // location vote on it; the claim is flagged when at least `majority`
  // (fraction) of the voters call it anomalous.
  double coop_radius = 150.0;
  double coop_majority = 0.5;

  /// [echo] / [evolve] / [coop]: benign samples the solo LAD detector of
  /// those kinds trains its threshold on.
  int train_samples = 400;

  /// Builds a spec from parsed config text.  Rejects unknown sections and
  /// keys, bad names and out-of-range values with messages naming the key.
  static ScenarioSpec from_config(const KvConfig& config);
  static ScenarioSpec load(const std::string& path);
};

/// Runtime adjustments (CLI flags) applied on top of a loaded spec.
struct ScenarioOverrides {
  bool quick = false;
  std::optional<std::uint64_t> seed;
  std::optional<int> m;
  std::optional<int> networks;
  std::optional<int> victims;
  std::optional<int> threads;
  std::optional<int> jobs;
  std::optional<double> r;
  std::optional<double> sigma;
};

ScenarioSpec apply_overrides(ScenarioSpec spec, const ScenarioOverrides& o);

/// Reads the common override flags (--quick, --seed, --m, --networks,
/// --victims, --threads, --jobs, --r, --sigma) — the one flag list shared
/// by `lad_cli run` and the bench wrappers.  `--jobs` must be >= 1; zero
/// and negative values are rejected by name (the parallel_for_items
/// convention: a computed-jobs bug must surface, not silently serialize
/// or grab all cores).
ScenarioOverrides overrides_from_flags(const Flags& flags);

/// One shard of a work-item list: the items with id % count == index.
struct ShardRange {
  int index = 0;
  int count = 1;

  bool contains(long long item) const {
    return item % static_cast<long long>(count) == static_cast<long long>(index);
  }
};

/// Parses "i/n" (0 <= i < n, n >= 1); throws lad::AssertionError with a
/// usage message on malformed syntax, i >= n, or n < 1.
ShardRange parse_shard(const std::string& text);

/// A result table whose rows are tagged with the work item that produced
/// them - the merge key for sharded runs.
struct ResultTable {
  std::string id;  ///< stable short name ("summary", "curves", "dr", ...)
  Table table;
  std::vector<long long> row_items;  ///< parallel to table rows
};

struct ScenarioResult {
  std::string scenario;  ///< spec name (CSV file prefix)
  std::vector<ResultTable> tables;
};

/// Expands and executes a scenario (or one shard of it).  Pipelines,
/// benign passes and the other shared state are constructed lazily, shared
/// across the items that need them and kept across run() calls; caches
/// never change results (item randomness is keyed, not sequential), only
/// wall time.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(const ScenarioSpec& spec);
  ~ScenarioRunner();

  /// Total work items in the full (unsharded) expansion.
  long long num_items() const;

  /// The table ids this spec's run will emit, in emission order - the
  /// CSV files `run --out` writes are `<scenario>.<id>.csv`.  Drives
  /// `run --resume`'s are-all-outputs-present check without executing
  /// any work item.
  std::vector<std::string> table_ids() const;

  /// Runs the items of `shard`; tables always carry the full header row
  /// even when the shard holds none of their items.
  ScenarioResult run(const ShardRange& shard = {});

  /// True when `dir` holds complete output for `shard`: every table CSV
  /// exists and the union of their item tags is exactly the work-item ids
  /// the shard owns.  Every work item emits at least one tagged row, so a
  /// header-only CSV left by a run killed between the header write and
  /// the first row reads as incomplete - presence of the file alone does
  /// not.  On false, `reason` (optional) receives why.
  bool output_complete(const std::string& dir, const ShardRange& shard,
                       std::string* reason = nullptr) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Localizer registry used by scenario specs: "beaconless-mle",
/// "weighted-centroid", "dv-hop", "amorphous", "truth-noise:<sigma>".
/// The factory borrows `pipeline` (model + g(z) table); keep it alive.
LocalizerFactory localizer_factory_from_name(const std::string& name,
                                             const Pipeline& pipeline);

/// Writes one "<scenario>.<table>.csv" per result table into `dir`
/// (created if missing) with the work-item tag as the first column.
/// Returns the written paths.
std::vector<std::string> write_result_csvs(const ScenarioResult& result,
                                           const std::string& dir);

/// Merges shard directories produced by write_result_csvs into `out_dir`:
/// every shard must carry the same table files with identical headers;
/// rows are re-ordered by item tag (stable), which reproduces the
/// unsharded file byte for byte.  Overlapping shards (an item tag in two
/// dirs) are always an error; with `require_complete` (the default) a
/// gap in the merged item tags - a forgotten or dead shard - is too.
void merge_result_csvs(const std::vector<std::string>& shard_dirs,
                       const std::string& out_dir,
                       bool require_complete = true);

}  // namespace lad
