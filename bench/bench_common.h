// Shared scaffolding for the reproduction benches: world/experiment setup,
// paper-vs-measured row helpers, CSV output.
#pragma once

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/classify.h"
#include "core/experiment.h"
#include "core/parallel.h"
#include "ditl/world.h"
#include "util/str.h"
#include "util/table.h"

namespace cd::bench {

/// Strict numeric flag value: all of `text` must parse as a T within
/// [lo, hi]. Anything else — "bogus", "", "3x", out of range, NaN — prints
/// an error naming `flag` and exits with status 2, so a typo never falls
/// back to a default silently.
template <typename T>
T parse_number(std::string_view flag, std::string_view text,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end ||
      !(value >= lo && value <= hi)) {
    std::fprintf(stderr, "error: malformed value for %.*s: '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return value;
}

/// Command-line knobs shared by the table/figure benches.
struct RunOptions {
  double scale = 1.0;  // multiplies the AS count
  bool wildcard_answers = false;
  std::uint64_t seed = 42;
  std::size_t shards = 1;   // AS-partitioned campaign shards
  std::size_t threads = 1;  // worker threads for the sharded runner
  /// When set, the campaign records its wire traffic (results->capture).
  std::optional<cd::core::CaptureSpec> capture;
};

/// Parses --scale=X --seed=N --threads=N --shards=N (unknown args ignored,
/// so benches keep working under tooling that appends its own flags;
/// malformed values exit via parse_number). --scale must be positive (and
/// large enough to leave at least one AS: run_standard_experiment exits 2
/// otherwise) and --threads/--shards at least 1. --threads alone implies one
/// shard per thread.
inline RunOptions parse_run_options(int argc, char** argv) {
  RunOptions opt;
  bool shards_given = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      opt.scale = parse_number("--scale", arg + 8,
                               std::numeric_limits<double>::min(),
                               std::numeric_limits<double>::max());
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt.seed = parse_number<std::uint64_t>("--seed", arg + 7);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      opt.threads = parse_number<std::size_t>("--threads", arg + 10, 1);
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      opt.shards = parse_number<std::size_t>("--shards", arg + 9, 1);
      shards_given = true;
    } else if (std::strcmp(arg, "--wildcard") == 0) {
      opt.wildcard_answers = true;
    }
  }
  if (!shards_given) opt.shards = opt.threads;
  return opt;
}

/// A generated world plus completed experiment results. In sharded mode
/// (`options.threads > 1` or `options.shards > 1`) the campaign runs via
/// core::run_sharded_experiment; `world` is then the reference world —
/// identical to every shard's, used for target lists, geo and ground truth —
/// and `experiment` is null.
struct Run {
  std::unique_ptr<cd::ditl::World> world;
  std::unique_ptr<cd::core::Experiment> experiment;
  const cd::core::ExperimentResults* results = nullptr;
  cd::core::ExperimentResults merged;  // storage for the sharded path
};

inline Run run_standard_experiment(const RunOptions& options) {
  using clock = std::chrono::steady_clock;

  cd::ditl::WorldSpec spec = cd::ditl::bench_world_spec();
  spec.n_asns = static_cast<int>(spec.n_asns * options.scale);
  if (spec.n_asns < 1) {
    std::fprintf(stderr, "error: --scale=%g leaves the world with no ASes\n",
                 options.scale);
    std::exit(2);
  }
  spec.wildcard_answers = options.wildcard_answers;
  spec.seed = options.seed;

  cd::core::ExperimentConfig config;
  config.analyst = cd::scanner::AnalystConfig{};
  config.capture = options.capture;

  const auto t0 = clock::now();
  Run run;
  run.world = cd::ditl::generate_world(spec);
  const auto t1 = clock::now();

  const auto ms = [](auto a, auto b) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count();
  };

  const bool sharded = options.threads > 1 || options.shards > 1;
  long long campaign_ms = 0;
  if (sharded) {
    config.num_shards = options.shards;
    config.num_threads = options.threads;
    cd::core::ShardedResults out = cd::core::run_sharded_experiment(spec, config);
    campaign_ms = static_cast<long long>(out.wall_ms);
    std::printf("# shards: %zu on %zu threads\n", options.shards,
                options.threads);
    for (const cd::core::ShardTiming& s : out.shards) {
      std::printf("#   shard %zu: %zu targets, gen %.0fms, run %.0fms",
                  s.shard, s.targets, s.gen_ms, s.run_ms);
      if (s.spill_ms > 0) std::printf(", spill %.0fms", s.spill_ms);
      std::printf(", peak RSS %zu KiB\n", s.peak_rss_kb);
    }
    std::printf("# wall %.0fms, merge %.0fms, aggregate shard time %.0fms "
                "(parallel speedup est. %.2fx), peak RSS %zu KiB\n",
                out.wall_ms, out.merge_ms, out.aggregate_ms(),
                out.wall_ms > 0 ? out.aggregate_ms() / out.wall_ms : 0.0,
                out.peak_rss_kb);
    run.merged = std::move(out.merged);
    run.results = &run.merged;
  } else {
    run.experiment = std::make_unique<cd::core::Experiment>(*run.world, config);
    run.results = &run.experiment->run();
    campaign_ms = ms(t1, clock::now());
  }

  std::printf(
      "# world: %zu ASes, %zu resolvers, %zu targets (gen %lldms)\n"
      "# campaign: %llu probes, %llu auth queries observed (run %lldms), "
      "digest %016llx\n\n",
      run.world->topology.as_count(), run.world->resolvers.size(),
      run.world->targets.size(), static_cast<long long>(ms(t0, t1)),
      static_cast<unsigned long long>(run.results->queries_sent),
      static_cast<unsigned long long>(run.results->collector_stats.entries_seen),
      campaign_ms,
      static_cast<unsigned long long>(cd::core::results_digest(*run.results)));
  return run;
}

/// Legacy entry point used by benches without campaign-shaping flags.
inline Run run_standard_experiment(double scale = 1.0,
                                   bool wildcard_answers = false,
                                   std::uint64_t seed = 42) {
  RunOptions options;
  options.scale = scale;
  options.wildcard_answers = wildcard_answers;
  options.seed = seed;
  return run_standard_experiment(options);
}

/// "measured (paper: X)" cell helper.
inline std::string vs_paper(const std::string& measured,
                            const std::string& paper) {
  return measured + "  (paper: " + paper + ")";
}

inline std::string count_pct(std::uint64_t part, std::uint64_t whole,
                             int digits = 1) {
  return cd::with_commas(part) + " (" +
         cd::percent(static_cast<double>(part), static_cast<double>(whole),
                     digits) +
         ")";
}

}  // namespace cd::bench
