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

/// Strict path flag value: an empty `text` prints an error naming `flag` and
/// exits with status 2, before a campaign runs only to fail at the end.
inline std::string parse_path(const char* flag, const char* text) {
  if (*text == '\0') {
    std::fprintf(stderr, "error: empty value for %s\n", flag);
    std::exit(2);
  }
  return text;
}

/// Command-line knobs shared by the table/figure benches.
struct RunOptions {
  double scale = 1.0;  // multiplies the AS count
  bool wildcard_answers = false;
  std::uint64_t seed = 42;
  std::size_t shards = 1;   // AS-partitioned campaign shards
  std::size_t threads = 1;  // worker threads for the sharded runner
  /// When set, the campaign records its wire traffic (results.capture).
  std::optional<cd::core::CaptureSpec> capture = std::nullopt;
};

/// Parses --scale=X --seed=N --threads=N --shards=N (unknown args ignored,
/// so benches keep working under tooling that appends its own flags;
/// malformed values exit via parse_number). --scale must be positive (and
/// must ask for 1 to INT_MAX ASes: run_standard_experiment exits 2
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
    }
  }
  if (!shards_given) opt.shards = opt.threads;
  return opt;
}

/// The reference world (shard 0 of 1: target lists, resolver ground truth,
/// and the campaign plan that analysis reads AS-level truth from) plus the
/// merged results of core::run_sharded_experiment over it.
struct Run {
  std::unique_ptr<cd::ditl::World> world;
  cd::core::ExperimentResults results;
};

inline Run run_standard_experiment(const RunOptions& options = {}) {
  cd::ditl::WorldSpec spec = cd::ditl::bench_world_spec();
  // In double: a product beyond INT_MAX must not reach the int cast.
  const double n_asns = spec.n_asns * options.scale;
  if (!(n_asns >= 1 && n_asns <= std::numeric_limits<int>::max())) {
    std::fprintf(stderr,
                 "error: --scale=%g asks for %g ASes; the world needs 1 to "
                 "%d\n",
                 options.scale, n_asns, std::numeric_limits<int>::max());
    std::exit(2);
  }
  spec.n_asns = static_cast<int>(n_asns);
  spec.wildcard_answers = options.wildcard_answers;
  spec.seed = options.seed;

  cd::core::ExperimentConfig config;
  config.analyst = cd::scanner::AnalystConfig{};
  config.capture = options.capture;
  config.num_shards = options.shards;
  config.num_threads = options.threads;

  const auto t0 = std::chrono::steady_clock::now();
  // One plan for the reference world and every shard of the campaign.
  const std::shared_ptr<const cd::ditl::CampaignPlan> plan =
      cd::ditl::build_campaign_plan(spec);
  Run run;
  run.world = cd::ditl::generate_world(plan);
  const std::chrono::duration<double, std::milli> gen =
      std::chrono::steady_clock::now() - t0;

  cd::core::ShardedResults out = cd::core::run_sharded_experiment(plan, config);
  std::printf("# shards: %zu on %zu threads\n", config.num_shards,
              config.num_threads);
  for (const cd::core::ShardTiming& s : out.shards) {
    std::printf("#   shard %zu: %zu targets, gen %.0fms, run %.0fms, "
                "peak RSS %zu KiB\n",
                s.shard, s.targets, s.gen_ms, s.run_ms, s.peak_rss_kb);
  }
  std::printf("# wall %.0fms, merge %.0fms, aggregate shard time %.0fms "
              "(parallel speedup est. %.2fx), peak RSS %zu KiB\n",
              out.wall_ms, out.merge_ms, out.aggregate_ms(),
              out.wall_ms > 0 ? out.aggregate_ms() / out.wall_ms : 0.0,
              out.peak_rss_kb);
  run.results = std::move(out.merged);

  std::printf(
      "# world: %zu ASes, %zu resolvers, %zu targets (gen %lldms)\n"
      "# campaign: %llu probes, %llu auth queries observed (run %lldms), "
      "digest %016llx\n",
      run.world->topology.as_count(), run.world->resolvers.size(),
      run.world->targets.size(), static_cast<long long>(gen.count()),
      static_cast<unsigned long long>(run.results.queries_sent),
      static_cast<unsigned long long>(run.results.collector_stats.entries_seen),
      static_cast<long long>(out.wall_ms),
      static_cast<unsigned long long>(cd::core::results_digest(run.results)));
  return run;
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
