// lad_cli - command-line front end for the library.
//
//   lad_cli train   --out detector.lad [--metric diff | --fusion]
//                   [--tau 0.99] [--taus 0.95,0.99,0.999]
//                   [--per-group] [--min-group-samples 100]
//                   [--m 300] [--r 50] [--sigma 50] [--networks 6]
//                   [--threads N]
//       Trains threshold(s) on simulated benign deployments and writes a
//       self-contained v2 detector bundle.  --fusion trains all three
//       metrics on one shared benign pass (the bundle materializes as a
//       FusionDetector); --taus records a multi-tau threshold table, with
//       --tau selecting the active operating point.  --per-group
//       additionally fits every boundary group's threshold on its own
//       benign bucket (min-samples floor falls back to the global value)
//       and records the per-group rows in every section.
//
//   lad_cli inspect --detector detector.lad
//       Prints a bundle's configuration and full per-section provenance
//       (tau table, per-group overrides, extension keys).
//
//   lad_cli check   --detector detector.lad --le-x <x> --le-y <y>
//                   --obs g0:c0,g1:c1,... [--group g]
//       Verdict for one (observation, estimated location) pair; --group
//       applies the bundle's per-group threshold override for that group.
//       A group id outside the bundle's deployment groups is a named
//       error, never a silent fall-through to the global threshold.
//
//   lad_cli simulate --detector detector.lad [--d 120] [--x 0.1]
//                    [--trials 200] [--attack dec-bounded]
//                    [--target diff] [--per-group] [--threads N]
//       Deploys a fresh network, attacks `trials` sensors, and reports the
//       detection rate of the shipped detector (plus benign FP).  The
//       attacker's taint optimizes against --target (default: the bundle's
//       first metric) - the interesting case for fused bundles.
//       --per-group routes every verdict through the bundle's per-group
//       threshold override for the victim's home group.
//
//   lad_cli upgrade --in old.lad --out new.lad
//       Rewrites a bundle in the current (v2) format; v1 inputs are
//       migrated, v2 inputs re-emitted canonically.
//
//   lad_cli run     --scenario file.scn [--shard i/n] [--out dir]
//                   [--resume] [--quick] [--csv] [--seed S] [--threads N]
//                   [--jobs J] [--m M] [--networks N] [--victims K]
//                   [--r R] [--sigma S]
//       Runs a declarative scenario (see bench/scenarios/*.scn and the
//       README's "Scenario files" section).  Without --out the result
//       tables print to stdout; with --out each table is written as an
//       item-tagged CSV.  --shard i/n executes only the work items with
//       id % n == i; shard output is placement-independent (Philox-keyed
//       randomness), so merged shards reproduce the unsharded run.
//       --jobs J runs up to J work items concurrently (on top of the
//       per-pass --threads fan-out); rows are buffered per item and
//       emitted in item order, so the CSVs stay byte-identical.
//       --resume skips the run when the output in --out is complete:
//       every table CSV present and their item tags covering exactly the
//       work items this shard owns (a header-only CSV from a run killed
//       after the header write is incomplete and re-runs).  Rerun a
//       killed shard fleet with --resume and only the dead shards
//       recompute.
//
//   lad_cli merge   --out dir [--partial] <shard_dir>...
//       Merges shard output directories written by `run --out`: rows are
//       re-ordered by work-item tag, yielding CSVs byte-identical to the
//       unsharded run's.  Overlapping shards and (unless --partial) gaps
//       in the item tags are errors.
//
//   lad_cli fuzz-scn [--seed S] [--iters N] [--mode valid|invalid|both]
//                    [--minimize] [--out dir]
//       Property-fuzzes the .scn surface (see sim/scenario_fuzz.h).
//       valid mode generates random-but-valid specs and requires the
//       parser and the runner's item accounting to accept every one;
//       invalid mode injects one named invalid edit per iteration and
//       requires a named AssertionError mentioning the injected token.
//       Exit 0 when every iteration behaves; exit 1 with the offending
//       spec (and, with --minimize, a greedily shrunk reproducer) written
//       under --out (default fuzz_failures/) otherwise.  Failures
//       reproduce from (--seed, iteration) alone.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "attack/adversary.h"
#include "attack/displacement.h"
#include "attack/greedy.h"
#include "core/lad.h"
#include "geom/vec2.h"
#include "loc/beaconless_mle.h"
#include "rng/rng.h"
#include "sim/parallel.h"
#include "sim/pipeline.h"
#include "sim/scenario.h"
#include "sim/scenario_fuzz.h"
#include "util/assert.h"
#include "util/flags.h"
#include "util/string_util.h"

using namespace lad;

namespace {

int usage() {
  std::cerr << "usage: lad_cli <train|inspect|check|simulate|upgrade|run|"
               "merge|fuzz-scn> [--flags]\n"
               "       see the header of tools/lad_cli.cpp for details\n";
  return 2;
}

PipelineConfig pipeline_from_flags(const Flags& flags) {
  PipelineConfig cfg;
  cfg.deploy.nodes_per_group = static_cast<int>(flags.get_int("m", 300));
  cfg.deploy.radio_range = flags.get_double("r", 50.0);
  cfg.deploy.sigma = flags.get_double("sigma", 50.0);
  cfg.networks = static_cast<int>(flags.get_int("networks", 6));
  cfg.victims_per_network = static_cast<int>(flags.get_int("victims", 150));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  // 0 = default parallelism; negative values are rejected by name inside
  // parallel_for_items, and the trained bundle is bit-identical at every
  // thread count (the pipeline's determinism contract).
  cfg.threads = static_cast<int>(flags.get_int("threads", 0));
  return cfg;
}

int cmd_train(const Flags& flags) {
  const std::string out = flags.get_string("out", "");
  if (out.empty()) {
    std::cerr << "train: --out <file> is required\n";
    return 2;
  }
  const bool fusion = flags.get_bool("fusion", false);
  if (fusion && flags.has("metric")) {
    std::cerr << "train: --fusion trains all three metrics; drop --metric\n";
    return 2;
  }
  const std::vector<MetricKind> metrics =
      fusion ? std::vector<MetricKind>{MetricKind::kDiff, MetricKind::kAddAll,
                                       MetricKind::kProb}
             : std::vector<MetricKind>{
                   metric_from_name(flags.get_string("metric", "diff"))};
  const double tau = flags.get_double("tau", 0.99);
  const std::vector<double> taus = flags.get_double_list("taus", {});
  GroupTrainingSpec grouped;
  grouped.per_group = flags.get_bool("per-group", false);
  grouped.min_samples =
      static_cast<int>(flags.get_int("min-group-samples", 100));
  if (!grouped.per_group && flags.has("min-group-samples")) {
    std::cerr << "train: --min-group-samples needs --per-group\n";
    return 2;
  }
  const PipelineConfig cfg = pipeline_from_flags(flags);

  Pipeline pipeline(cfg);
  const LocalizerFactory factory =
      beaconless_mle_factory(pipeline.model(), pipeline.gz());
  const DetectorBundle bundle =
      pipeline.train_bundle(factory, metrics, taus, tau, grouped);
  for (const DetectorSpec& spec : bundle.detectors) {
    std::cout << "trained " << metric_name(spec.metric) << " threshold "
              << spec.threshold << " at tau " << tau;
    for (const ThresholdEntry& e : spec.taus) {
      if (e.tau == tau) {
        std::cout << " over " << e.samples << " samples (benign mean "
                  << e.score_mean << ")";
      }
    }
    std::cout << "\n";
    if (grouped.per_group) {
      std::size_t trained = 0, fallback = 0;
      for (const GroupThreshold& g : spec.group_overrides) {
        (g.source == GroupOverrideSource::kFallback ? fallback : trained)++;
      }
      std::cout << "  per-group: " << trained << " boundary group(s) "
                << "trained, " << fallback << " below the "
                << grouped.min_samples << "-sample floor (global fallback)\n";
    }
  }

  std::ofstream os(out);
  if (!os) {
    std::cerr << "train: cannot open '" << out << "' for writing\n";
    return 1;
  }
  save_bundle(os, bundle);
  os.flush();
  if (!os) {
    std::cerr << "train: failed writing '" << out << "'\n";
    return 1;
  }
  std::cout << "wrote " << out << "\n";
  return 0;
}

DetectorBundle load_from_flag(const Flags& flags, int* version = nullptr) {
  const std::string path = flags.get_string("detector", "");
  LAD_REQUIRE_MSG(!path.empty(), "--detector <file> is required");
  return load_bundle_file(path, version);
}

int cmd_inspect(const Flags& flags) {
  int version = 0;
  const DetectorBundle b = load_from_flag(flags, &version);
  std::cout << "format:       lad-detector v" << version
            << (version == 1 ? " (migrates to v2 in memory)" : "") << "\n"
            << "field:        " << b.config.field_side << " x "
            << b.config.field_side << " m\n"
            << "groups:       " << b.deployment_points.size() << " (m = "
            << b.config.nodes_per_group << " nodes each)\n"
            << "sigma:        " << b.config.sigma << " m\n"
            << "radio range:  " << b.config.radio_range << " m\n"
            << "g(z) omega:   " << b.gz_omega << "\n"
            << "detectors:    " << b.detectors.size()
            << (b.fused() ? " (fusion: alarm when any metric alarms)" : "")
            << "\n";
  for (const DetectorSpec& spec : b.detectors) {
    std::cout << "[detector." << metric_name(spec.metric) << "]\n"
              << "  metric:       " << metric_name(spec.metric) << "\n"
              << "  threshold:    " << spec.threshold << "\n";
    for (const ThresholdEntry& e : spec.taus) {
      std::cout << "  tau " << e.tau << " -> threshold " << e.threshold
                << " (" << e.samples << " samples, score mean "
                << e.score_mean << ", stddev " << e.score_stddev
                << ", range [" << e.score_min << ", " << e.score_max
                << "])\n";
    }
    for (const GroupThreshold& g : spec.group_overrides) {
      std::cout << "  group " << g.group << " -> threshold " << g.threshold;
      if (g.source != GroupOverrideSource::kManual) {
        std::cout << " (" << group_override_source_name(g.source) << ", "
                  << g.samples << " samples, score mean " << g.score_mean
                  << ", stddev " << g.score_stddev << ")";
      }
      std::cout << "\n";
    }
    for (const auto& [key, value] : spec.extensions) {
      std::cout << "  x-" << key << " " << value << "\n";
    }
  }
  return 0;
}

int cmd_upgrade(const Flags& flags) {
  const std::string in = flags.get_string("in", "");
  const std::string out = flags.get_string("out", "");
  if (in.empty() || out.empty()) {
    std::cerr << "usage: lad_cli upgrade --in <old.lad> --out <new.lad>\n";
    return 2;
  }
  int version = 0;
  const DetectorBundle b = load_bundle_file(in, &version);
  std::ofstream os(out);
  if (!os) {
    std::cerr << "upgrade: cannot open '" << out << "' for writing\n";
    return 1;
  }
  save_bundle(os, b);
  os.flush();
  if (!os) {
    std::cerr << "upgrade: failed writing '" << out << "'\n";
    return 1;
  }
  std::cout << (version == 1 ? "upgraded v1 -> v2: "
                             : "rewrote v2 canonically: ")
            << in << " -> " << out << "\n";
  return 0;
}

int cmd_check(const Flags& flags) {
  const DetectorBundle bundle = load_from_flag(flags);
  const RuntimeDetector rt(bundle);
  const Vec2 le{flags.get_double("le-x", 0.0), flags.get_double("le-y", 0.0)};
  Observation obs(bundle.deployment_points.size());
  for (const std::string& tok :
       split(flags.get_string("obs", ""), ',')) {
    if (trim(tok).empty()) continue;
    const auto kv = split(tok, ':');
    LAD_REQUIRE_MSG(kv.size() == 2, "bad --obs token '" << tok << "'");
    const long long g = parse_int(kv[0]);
    LAD_REQUIRE_MSG(g >= 0 && g < static_cast<long long>(obs.num_groups()),
                    "group out of range in --obs: " << g);
    obs.counts[static_cast<std::size_t>(g)] =
        static_cast<int>(parse_int(kv[1]));
  }
  Verdict v;
  if (flags.has("group")) {
    // Validate before the int cast: a group id past the bundle's last
    // deployment group (or a wrap-around-sized one) must be a named
    // error, not a silent fall-through to the global threshold.
    const long long group = flags.get_int("group", 0);
    LAD_REQUIRE_MSG(
        group >= 0 &&
            group < static_cast<long long>(bundle.deployment_points.size()),
        "check: unknown group " << group << ": bundle has groups [0, "
                                << bundle.deployment_points.size() << ")");
    v = rt.check_for_group(obs, le, static_cast<int>(group));
  } else {
    v = rt.check(obs, le);
  }
  std::cout << "detector: " << rt.detector().describe() << "\n";
  std::cout << "score " << v.score << " vs threshold " << v.threshold
            << " -> " << (v.anomaly ? "ANOMALY" : "ok") << "\n";
  return v.anomaly ? 3 : 0;
}

int cmd_simulate(const Flags& flags) {
  const DetectorBundle bundle = load_from_flag(flags);
  const RuntimeDetector rt(bundle);
  const double d = flags.get_double("d", 120.0);
  const double x = flags.get_double("x", 0.10);
  const int trials = static_cast<int>(flags.get_int("trials", 200));
  LAD_REQUIRE_MSG(trials > 0, "--trials must be positive");
  const AttackClass cls =
      attack_class_from_name(flags.get_string("attack", "dec-bounded"));
  // The taint optimizes against one metric (it must commit); a fused
  // bundle is exactly the defense against that commitment.
  const MetricKind target =
      flags.has("target")
          ? metric_from_name(flags.get_string("target", "diff"))
          : bundle.primary().metric;
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  // Route verdicts through the bundle's per-group threshold overrides for
  // each victim's home group - what a sensor that knows its own group id
  // would run.
  const bool per_group = flags.get_bool("per-group", false);

  const int threads = static_cast<int>(flags.get_int("threads", 0));

  Rng rng(seed);
  const Network net(rt.model(), rng);
  const BeaconlessMleLocalizer localizer(rt.model(), rt.gz());

  // Sequential rng phase first (the historical per-trial draw order:
  // victim rejection draws, then the planted Le), so the verdict fan-out
  // below is free to run in any schedule without perturbing a single
  // draw - counts are identical at every --threads value.
  std::vector<std::size_t> nodes(static_cast<std::size_t>(trials));
  std::vector<Vec2> les(nodes.size());
  for (std::size_t t = 0; t < nodes.size(); ++t) {
    std::size_t node;
    do {
      node = static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
    } while (!bundle.config.field().contains(net.position(node)));
    nodes[t] = node;
    les[t] = displaced_location(net.position(node), d, bundle.config.field(),
                                rng);
  }

  // Parallel trial fan-out into per-trial verdict slots; the reduction
  // below is a schedule-independent count.
  std::vector<char> benign_hit(nodes.size(), 0);
  std::vector<char> attack_hit(nodes.size(), 0);
  parallel_for_items(
      nodes.size(),
      [&](std::size_t t) {
        const std::size_t node = nodes[t];
        const Observation a = net.observe(node);
        const int home_group = net.group_of(node);
        const auto verdict = [&](const Observation& obs, Vec2 at) {
          return per_group ? rt.check_for_group(obs, at, home_group)
                           : rt.check(obs, at);
        };
        // Benign check.
        if (verdict(a, localizer.estimate(a)).anomaly) benign_hit[t] = 1;
        // Attacked check.
        const ExpectedObservation mu =
            rt.model().expected_observation(les[t], rt.gz());
        const TaintResult taint =
            greedy_taint(a, mu, bundle.config.nodes_per_group, target, cls,
                         static_cast<int>(x * a.total()));
        if (verdict(taint.tainted, les[t]).anomaly) attack_hit[t] = 1;
      },
      threads);
  int benign_alarms = 0, detected = 0;
  for (std::size_t t = 0; t < nodes.size(); ++t) {
    benign_alarms += benign_hit[t];
    detected += attack_hit[t];
  }
  std::cout << "detector: " << rt.detector().describe()
            << (per_group ? " (per-group thresholds)" : "") << "\n";
  std::cout << "benign false positives: " << benign_alarms << "/" << trials
            << " (" << format_double(100.0 * benign_alarms / trials, 2)
            << "%)\n";
  std::cout << "attacks detected (D=" << d << ", x=" << x * 100
            << "%, " << attack_class_name(cls) << " vs "
            << metric_name(target) << "): " << detected << "/"
            << trials << " ("
            << format_double(100.0 * detected / trials, 2) << "%)\n";
  return 0;
}

/// Rejects typo'd flags for the scenario subcommands: a silently dropped
/// --shard misspelling would run ALL work items and poison a later merge
/// with duplicate rows.
int reject_unknown_flags(const Flags& flags, const char* cmd) {
  const std::vector<std::string> unknown = flags.unused();
  if (!unknown.empty()) {
    std::cerr << cmd << ": unknown flag(s): --" << join(unknown, ", --")
              << "\n";
    return 2;
  }
  return 0;
}

int cmd_run(const Flags& flags) {
  const std::string scn = flags.get_string("scenario", "");
  if (scn.empty()) {
    std::cerr << "run: --scenario <file.scn> is required\n";
    return 2;
  }

  ShardRange shard;
  if (flags.has("shard")) {
    try {
      shard = parse_shard(flags.get_string("shard", "0/1"));
    } catch (const AssertionError& e) {
      std::cerr << "run: invalid --shard: " << e.what() << "\n"
                << "run: expected --shard i/n with 0 <= i < n, e.g. 0/4\n";
      return 2;
    }
  }

  const ScenarioOverrides overrides = overrides_from_flags(flags);
  const std::string out = flags.get_string("out", "");
  const bool csv = flags.get_bool("csv", false);
  const bool resume = flags.get_bool("resume", false);
  if (resume && out.empty()) {
    std::cerr << "run: --resume requires --out (it skips completed CSVs)\n";
    return 2;
  }
  if (!flags.positional().empty()) {
    std::cerr << "run: unexpected argument(s): "
              << join(flags.positional(), " ") << "\n";
    return 2;
  }
  if (const int rc = reject_unknown_flags(flags, "run")) return rc;

  const ScenarioSpec spec = apply_overrides(ScenarioSpec::load(scn), overrides);
  ScenarioRunner runner(spec);
  if (resume) {
    // CSVs are written atomically (tmp + rename), but presence alone is
    // not completeness: a run killed between the header write and the
    // first row leaves a header-only CSV behind.  Completeness means every
    // table CSV exists AND the item tags in them cover exactly the work
    // items this shard owns.
    std::string reason;
    if (runner.output_complete(out, shard, &reason)) {
      std::cerr << "resume: output of '" << spec.name << "' in " << out
                << " is complete; skipping\n";
      return 0;
    }
    std::cerr << "resume: " << reason << "; re-running\n";
  }
  const long long total = runner.num_items();
  const long long mine =
      (total - shard.index + shard.count - 1) / shard.count;
  if (mine <= 0) {
    // An empty slice of the cartesian product silently "succeeding" hides
    // a misconfigured fleet (more shards than work items) or a spec that
    // expands to nothing; fail loudly instead of exiting 0 with no output.
    std::cerr << "run: no work items: scenario '" << spec.name
              << "' expands to " << total << " work item(s) and shard "
              << shard.index << "/" << shard.count
              << " owns none of them\n";
    return 2;
  }
  std::cerr << "scenario '" << spec.name << "' ("
            << experiment_kind_name(spec.kind) << "): running " << mine
            << " of " << total << " work items (shard " << shard.index << "/"
            << shard.count << ")\n";

  const ScenarioResult result = runner.run(shard);
  if (!out.empty()) {
    const std::vector<std::string> paths = write_result_csvs(result, out);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      std::cout << "wrote " << paths[i] << " ("
                << result.tables[i].table.num_rows() << " rows)\n";
    }
    return 0;
  }
  std::cout << spec.title << "\n";
  for (const ResultTable& t : result.tables) {
    std::cout << "\n== " << t.id << " ==\n";
    if (csv) {
      t.table.print_csv(std::cout);
    } else {
      t.table.print(std::cout);
    }
  }
  if (!spec.note.empty()) std::cout << "\n" << spec.note << "\n";
  return 0;
}

int cmd_merge(const Flags& flags) {
  const std::string out = flags.get_string("out", "");
  std::vector<std::string> shard_dirs = flags.positional();
  bool partial = false;
  if (flags.has("partial")) {
    // flags.h's "--name value" form means a bare --partial swallows the
    // following shard dir; an existing directory wins over a boolean
    // reading (a shard dir named "1" or "true" is still a dir).  Dir
    // order never changes the merged output (items are disjoint across
    // shards), so recovering it at the front is safe.
    partial = true;
    const std::string v = flags.get_string("partial", "true");
    if (std::filesystem::is_directory(v)) {
      shard_dirs.insert(shard_dirs.begin(), v);
    } else {
      try {
        partial = flags.get_bool("partial", true);  // --partial=false works
      } catch (const AssertionError&) {
        // Neither a directory nor a boolean: let merge report it missing.
        shard_dirs.insert(shard_dirs.begin(), v);
      }
    }
  }
  if (out.empty() || shard_dirs.empty()) {
    std::cerr << "usage: lad_cli merge --out <dir> [--partial] "
                 "<shard_dir>...\n";
    return 2;
  }
  if (const int rc = reject_unknown_flags(flags, "merge")) return rc;
  merge_result_csvs(shard_dirs, out, /*require_complete=*/!partial);
  std::cout << "merged " << shard_dirs.size() << " shard dir(s) into " << out
            << "\n";
  return 0;
}

int run_fuzz_mode(const FuzzOptions& options, const std::string& out_dir) {
  const char* mode = options.invalid ? "invalid" : "valid";
  const FuzzReport report = fuzz_scn(options);
  std::cout << "fuzz-scn " << mode << ": " << report.iterations
            << " iteration(s), " << report.failures.size()
            << " failure(s)";
  if (options.invalid) {
    std::cout << ", " << report.classes_seen.size()
              << " mutation class(es) exercised";
  }
  std::cout << "\n";
  if (options.invalid &&
      report.classes_seen.size() < scn_mutation_classes().size()) {
    // Too few iterations to round-robin every class is itself a
    // configuration error: the run would prove less than it claims.
    std::cerr << "fuzz-scn: only " << report.classes_seen.size() << " of "
              << scn_mutation_classes().size()
              << " mutation classes exercised; raise --iters\n";
    return 1;
  }
  if (report.ok()) return 0;

  namespace fs = std::filesystem;
  fs::create_directories(out_dir);
  for (const FuzzFailure& f : report.failures) {
    const std::string base = out_dir + "/" + mode + "_" +
                             std::to_string(f.iteration);
    std::cerr << "FAIL [" << mode << " iter " << f.iteration
              << (f.klass.empty() ? "" : " " + f.klass) << "] " << f.message
              << "\n";
    std::ofstream(base + ".scn") << f.spec;
    std::cerr << "  offending spec: " << base << ".scn\n";
    if (!f.minimized.empty()) {
      std::ofstream(base + ".min.scn") << f.minimized;
      std::cerr << "  minimized reproducer: " << base << ".min.scn\n";
    }
  }
  std::cerr << "fuzz-scn: reproduce any failure with --seed "
            << options.seed << " (iteration index selects the stream)\n";
  return 1;
}

int cmd_fuzz_scn(const Flags& flags) {
  FuzzOptions options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  options.iters = flags.get_int("iters", 200);
  LAD_REQUIRE_MSG(options.iters > 0, "--iters must be positive");
  options.minimize = flags.get_bool("minimize", false);
  const std::string mode = flags.get_string("mode", "both");
  LAD_REQUIRE_MSG(mode == "valid" || mode == "invalid" || mode == "both",
                  "--mode must be valid, invalid, or both, got '" << mode
                                                                  << "'");
  const std::string out_dir = flags.get_string("out", "fuzz_failures");
  if (const int rc = reject_unknown_flags(flags, "fuzz-scn")) return rc;

  int rc = 0;
  if (mode != "invalid") {
    options.invalid = false;
    rc |= run_fuzz_mode(options, out_dir);
  }
  if (mode != "valid") {
    options.invalid = true;
    rc |= run_fuzz_mode(options, out_dir);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Flags flags = Flags::parse(argc - 1, argv + 1);
  try {
    if (cmd == "train") return cmd_train(flags);
    if (cmd == "inspect") return cmd_inspect(flags);
    if (cmd == "check") return cmd_check(flags);
    if (cmd == "simulate") return cmd_simulate(flags);
    if (cmd == "upgrade") return cmd_upgrade(flags);
    if (cmd == "run") return cmd_run(flags);
    if (cmd == "merge") return cmd_merge(flags);
    if (cmd == "fuzz-scn") return cmd_fuzz_scn(flags);
    return usage();
  } catch (const AssertionError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
