#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <sstream>

#include "analysis/kmeans.h"
#include "api/database_session.h"
#include "explorer/analysis_server.h"
#include "io/detect.h"
#include "io/synth.h"
#include "sqldb/connection.h"
#include "sqldb/durability.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "tracer.h"
#include "util/timer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace perfdmf;

constexpr std::size_t kMaxErrors = 10;

// The per-trial aggregate in the exact text that
// DatabaseAPI::aggregate_interval_column sends (so EXPLAIN ANALYZE probes
// the plan the API gets).
constexpr const char* kAggregateSql =
    "EXPLAIN ANALYZE SELECT COUNT(p.exclusive), MIN(p.exclusive), "
    "MAX(p.exclusive), AVG(p.exclusive), STDDEV(p.exclusive) FROM "
    "interval_event e JOIN interval_location_profile p ON p.interval_event = "
    "e.id WHERE e.trial = ? AND e.id = ? AND p.metric = ?";

// One trial's interval rows and exclusive-time sum, per trial id.
constexpr const char* kTrialTotalsSql =
    "SELECT e.trial, COUNT(*), SUM(p.exclusive) FROM interval_event e JOIN "
    "interval_location_profile p ON p.interval_event = e.id GROUP BY e.trial";

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool close_to(double actual, double expected) {
  return std::fabs(actual - expected) <=
         1e-9 * std::max(1.0, std::fabs(expected));
}

std::map<std::string, CounterDelta> registry_values() {
  std::map<std::string, CounterDelta> out;
  for (const auto& s : telemetry::MetricsRegistry::instance().snapshot()) {
    CounterDelta d;
    if (s.kind == telemetry::MetricSample::Kind::kHistogram) {
      d.count = static_cast<std::uint64_t>(s.count);
      d.sum = s.sum;
    } else {
      d.value = s.value;
    }
    out[s.name] = d;
  }
  return out;
}

std::map<std::string, CounterDelta> delta_since(
    const std::map<std::string, CounterDelta>& before) {
  std::map<std::string, CounterDelta> out = registry_values();
  for (auto& [name, d] : out) {
    auto it = before.find(name);
    if (it == before.end()) continue;
    d.value -= it->second.value;
    d.count -= it->second.count;
    d.sum -= it->second.sum;
  }
  return out;
}

// Adds the registry's change since `before` to `into`.
void add_delta_since(std::map<std::string, CounterDelta>& into,
                     const std::map<std::string, CounterDelta>& before) {
  for (const auto& [name, d] : delta_since(before)) {
    CounterDelta& total = into[name];
    total.value += d.value;
    total.count += d.count;
    total.sum += d.sum;
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::shared_ptr<sqldb::Connection> open_archive(const fs::path& dir) {
  sqldb::DurabilityOptions options;
  options.sync = sqldb::SyncMode::kOnCommit;
  return std::make_shared<sqldb::Connection>(dir, options);
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double exclusive_sum(const profile::TrialData& trial) {
  double sum = 0.0;
  trial.for_each_interval([&](std::size_t, std::size_t, std::size_t,
                              const profile::IntervalDataPoint& p) {
    sum += p.exclusive;
  });
  return sum;
}

// Progress on stderr, with seconds since the driver started.
const Clock::time_point g_start = Clock::now();

void log_phase(const Options& opt, const char* phase) {
  std::fprintf(stderr, "perfbench_driver: %s: %s done at %.2f s\n",
               opt.workload.c_str(), phase,
               std::chrono::duration<double>(Clock::now() - g_start).count());
}

void note_failure(RunResult& r, std::size_t op, const std::string& why) {
  if (op < r.ops.size()) r.ops[op].ok = false;
  if (r.errors.size() < kMaxErrors) r.errors.push_back(why);
}

bool keep_going(const Options& opt, std::uint64_t done,
                Clock::time_point deadline) {
  if (opt.fixed_ops > 0) return done < static_cast<std::uint64_t>(opt.fixed_ops);
  return Clock::now() < deadline;
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// Traced runs trace every other block of `block` ops, so one run yields
// both the traced ops and an untraced baseline for the tracing overhead.
// A block spans whole cycles of a workload's op kinds, so both halves see
// the same mix.
bool traced_op(const Options& opt, std::uint64_t n, std::uint64_t block = 1) {
  return opt.trace && n / block % 2 == 1;
}

// EXPLAIN ANALYZE the per-trial aggregate on the newest trial: rows the
// access path examined against rows that reach the aggregate. A hash join
// reports only its matches, but it scans every row of the probed table,
// so that table's size is what it examined.
void explain_probe(sqldb::Connection& conn, RunResult& r) {
  const auto first_int = [&](const std::string& sql) -> std::int64_t {
    auto rs = conn.execute(sql);
    return rs.next() && !rs.is_null(1) ? rs.get_int(1) : -1;
  };
  const std::int64_t trial = first_int("SELECT MAX(id) FROM trial");
  if (trial < 0) return;
  const std::string of_trial = " WHERE trial = " + std::to_string(trial);
  const sqldb::Params params{
      sqldb::Value(trial),
      sqldb::Value(first_int("SELECT MIN(id) FROM interval_event" + of_trial)),
      sqldb::Value(first_int("SELECT MIN(id) FROM metric" + of_trial))};
  auto rs = conn.execute(kAggregateSql, params);
  bool hash_join = false;
  while (rs.next()) {
    const std::string line = rs.get_string(1);
    if (!r.explain_plan.empty()) r.explain_plan += '\n';
    r.explain_plan += line;
    if (line.rfind("join p:", 0) == 0) {
      hash_join = line.find("hash") != std::string::npos;
    }
    if (line.rfind("analyze ", 0) != 0) continue;
    const auto field = [&](const char* key) -> std::uint64_t {
      const auto at = line.find(key);
      return at == std::string::npos
                 ? 0
                 : std::stoull(line.substr(at + std::strlen(key)));
    };
    if (line.rfind("analyze from ", 0) == 0) {
      r.explain_examined += field("rows_in=");
    } else if (line.rfind("analyze join p:", 0) == 0 && !hash_join) {
      r.explain_examined += std::max(field("entries="), field("rows_out="));
    } else if (line.rfind("analyze group-by:", 0) == 0) {
      r.explain_qualifying = field("rows_in=");
    }
  }
  if (hash_join) {
    r.explain_examined += static_cast<std::uint64_t>(
        first_int("SELECT COUNT(*) FROM interval_location_profile"));
  }
}

// ------------------------------------------------------------------ ingest

struct IngestInput {
  fs::path dir;
  std::uint64_t points = 0;
  double exclusive = 0.0;
};

profile::TrialData ingest_trial(const Options& opt, int i) {
  io::synth::TrialSpec spec;
  spec.name = "ingest_" + std::to_string(i);
  spec.nodes = 128;
  spec.event_count = 101;
  spec.seed = mix_seed(opt.seed, i);
  return io::synth::generate_trial(spec);
}

}  // namespace

RunResult run_ingest(const Options& opt) {
  RunResult r;
  r.kinds = {"ingest"};
  // Each archive stores the inputs once, in turn, and the run then moves
  // on to a fresh archive: the n-th op stores input n % kInputs as its
  // archive's (n % kInputs + 1)-th trial, so an op's work does not depend
  // on how many ops the run's length allowed before it.
  constexpr int kInputs = 3;
  // A set-up takes a few milliseconds, so its median needs many.
  constexpr int kSetups = 25;
  const fs::path root = opt.work_dir / "ingest";
  const auto archive_dir = [&](std::size_t k) {
    return root / ("archive_" + std::to_string(k));
  };
  std::vector<IngestInput> inputs;
  std::vector<std::shared_ptr<api::DatabaseSession>> archives;

  // The TAU profile directories (384 files) are written once, outside
  // the timed set-ups: creating a file on a shared disk costs anywhere
  // from 20 to 600 us, so the writes made set-up time mostly disk noise.
  for (int i = 0; i < kInputs; ++i) {
    io::synth::write_as_tau(ingest_trial(opt, i),
                            root / ("tau_" + std::to_string(i)));
  }
  for (int s = 0; s < kSetups; ++s) {
    archives.clear();
    fs::remove_all(archive_dir(0));
    util::WallTimer timer;
    inputs.clear();
    for (int i = 0; i < kInputs; ++i) {
      const profile::TrialData trial = ingest_trial(opt, i);
      inputs.push_back({root / ("tau_" + std::to_string(i)),
                        trial.interval_point_count(), exclusive_sum(trial)});
    }
    archives.push_back(
        std::make_shared<api::DatabaseSession>(open_archive(archive_dir(0))));
    r.setup_s.push_back(timer.seconds());
  }
  log_phase(opt, "setup");

  struct Acked {
    std::int64_t id;
    int input;
    std::size_t op;
  };
  std::vector<std::vector<Acked>> acked(1);  // per archive
  const std::string experiment = "seed " + std::to_string(opt.seed);
  const auto before = registry_values();
  const auto start = Clock::now();
  const auto deadline = deadline_after(opt.seconds);
  // A timed run ends at the first archive boundary after the deadline, so
  // it stores whole archives (at least one) and its ops take the three
  // positions in an archive equally often.
  const auto more = [&](std::uint64_t n) {
    if (opt.fixed_ops > 0) return keep_going(opt, n, deadline);
    return n == 0 || n % kInputs != 0 || Clock::now() < deadline;
  };
  for (std::uint64_t n = 0; more(n); ++n) {
    const int input = static_cast<int>(n % kInputs);
    if (n > 0 && input == 0) {
      archives.push_back(std::make_shared<api::DatabaseSession>(
          open_archive(archive_dir(archives.size()))));
      acked.emplace_back();
    }
    OpSample sample;
    sample.traced = traced_op(opt, n);
    ScopedTracing tracing(sample.traced, n + 1);
    const auto op_start = sample.traced
                              ? registry_values()
                              : std::map<std::string, CounterDelta>{};
    const auto t0 = Clock::now();
    try {
      ScopedSpan op_span("op.ingest");
      profile::TrialData data;
      {
        ScopedSpan span("io.load_profile");
        data = io::load_profile(inputs[input].dir);
      }
      r.points_parsed += data.interval_point_count();
      std::int64_t id;
      {
        ScopedSpan span("api.save_trial");
        id = archives.back()->save_trial(data, "ingest", experiment);
      }
      acked.back().push_back({id, input, r.ops.size()});
    } catch (const std::exception& e) {
      sample.ok = false;
      if (r.errors.size() < kMaxErrors) r.errors.push_back(e.what());
    }
    sample.ms = ms_since(t0);
    if (sample.traced) add_delta_since(r.traced_counters, op_start);
    r.ops.push_back(sample);
    if (n < kInputs) r.peak_rss_mb = peak_rss_mb();
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  r.counters = delta_since(before);
  for (std::size_t k = 0; k < archives.size(); ++k) {
    r.disk_bytes += dir_bytes(archive_dir(k));
  }

  // Every acknowledged trial of archive k holds the generated rows and
  // exclusive sum.
  auto verify = [&](sqldb::Connection& conn, std::size_t k, const char* when) {
    std::map<std::int64_t, std::pair<std::uint64_t, double>> stored;
    auto rs = conn.execute(kTrialTotalsSql);
    while (rs.next()) {
      stored[rs.get_int(1)] = {static_cast<std::uint64_t>(rs.get_int(2)),
                               rs.get_double(3)};
    }
    for (const Acked& a : acked[k]) {
      const IngestInput& want = inputs[a.input];
      const std::string trial = std::string(when) + ": archive " +
                                std::to_string(k) + " trial " +
                                std::to_string(a.id);
      auto it = stored.find(a.id);
      if (it == stored.end()) {
        note_failure(r, a.op, trial + " missing");
      } else if (it->second.first != want.points ||
                 !close_to(it->second.second, want.exclusive)) {
        note_failure(r, a.op, trial + " has " +
                                  std::to_string(it->second.first) +
                                  " rows, exclusive sum " +
                                  std::to_string(it->second.second));
      }
    }
  };
  log_phase(opt, "measure");
  for (std::size_t k = 0; k < archives.size(); ++k) {
    verify(archives[k]->api().connection(), k, "live");
  }
  log_phase(opt, "verify");
  for (const auto& stored : acked) {
    for (const Acked& a : stored) r.rows += inputs[a.input].points;
  }
  r.disk_rows = r.rows;
  explain_probe(archives.front()->api().connection(), r);

  // The first archive is closed, which checkpoints it, and reopened, and
  // its trials are checked again. The later archives are checked live
  // only: a close costs seconds per stored trial, which would tie the
  // run's length to its throughput. They stay open (the driver exits
  // without closing them).
  util::WallTimer close;
  archives.front().reset();
  r.close_s = close.seconds();
  log_phase(opt, "close");
  util::WallTimer reopen;
  auto conn = open_archive(archive_dir(0));
  r.reopen_s.push_back(reopen.seconds());
  log_phase(opt, "reopen");
  verify(*conn, 0, "reopened");
  log_phase(opt, "verify reopened");
  r.open_archives.assign(archives.begin() + 1, archives.end());
  r.open_archives.push_back(conn);
  return r;
}

// ----------------------------------------------------------------- explore

namespace {

constexpr explorer::AnalysisKind kExploreCycle[] = {
    explorer::AnalysisKind::kKMeans,      explorer::AnalysisKind::kHierarchical,
    explorer::AnalysisKind::kCorrelation, explorer::AnalysisKind::kPca,
    explorer::AnalysisKind::kDescriptive, explorer::AnalysisKind::kImbalance};
constexpr std::size_t kKinds = std::size(kExploreCycle);
constexpr std::size_t kClusters = 3;
constexpr int kExploreSetups = 3;

struct ExploreTrial {
  std::int64_t id = 0;
  std::uint64_t points = 0;
  std::vector<std::size_t> truth;
};

// A clustering result must recover the planted clusters.
void check_clustering(const explorer::AnalysisResponse& response,
                      const ExploreTrial& want) {
  const auto at = response.content.find("assignment:");
  if (at == std::string::npos) throw std::runtime_error("no assignment");
  std::istringstream in(response.content.substr(at + 11));
  std::vector<std::size_t> assignment;
  for (std::size_t a; in >> a;) assignment.push_back(a);
  if (assignment.size() != want.truth.size()) {
    throw std::runtime_error("assignment covers " +
                             std::to_string(assignment.size()) + " threads");
  }
  const double ari = analysis::adjusted_rand_index(assignment, want.truth);
  if (ari < 0.99) {
    throw std::runtime_error(response.kind + " ARI " + std::to_string(ari));
  }
}

}  // namespace

RunResult run_explore(const Options& opt) {
  RunResult r;
  for (const auto kind : kExploreCycle) {
    r.kinds.push_back(explorer::analysis_kind_name(kind));
  }
  r.clients = 2;  // requests in flight
  const fs::path archive = opt.work_dir / "explore" / "archive";
  std::vector<ExploreTrial> trials;
  std::shared_ptr<sqldb::Connection> conn;
  std::unique_ptr<explorer::AnalysisServer> server;

  for (int s = 0; s < kExploreSetups; ++s) {
    server.reset();
    conn.reset();
    fs::remove_all(archive);
    util::WallTimer timer;
    trials.clear();
    r.disk_rows = 0;
    conn = open_archive(archive);
    api::DatabaseSession session(conn);
    for (int i = 0; i < 2; ++i) {
      io::synth::ClusterSpec spec;
      spec.name = "sppm_" + std::to_string(i);
      spec.threads = 128;
      spec.event_count = 24;
      spec.metric_count = 7;
      spec.cluster_count = kClusters;
      spec.seed = mix_seed(opt.seed, 200 + i);
      io::synth::ClusteredTrial generated =
          io::synth::generate_clustered_trial(spec);
      ExploreTrial t;
      t.id = session.save_trial(generated.trial, "sppm", "explore");
      t.points = generated.trial.interval_point_count();
      t.truth = std::move(generated.ground_truth);
      r.disk_rows += t.points;
      trials.push_back(std::move(t));
    }
    server = std::make_unique<explorer::AnalysisServer>(conn, 2);
    r.setup_s.push_back(timer.seconds());
  }
  log_phase(opt, "setup");
  // The archive holds the stored trials and nothing else yet; the result
  // rows the requests add would make bytes per point grow with throughput.
  r.disk_bytes = dir_bytes(archive);

  struct InFlight {
    std::future<explorer::AnalysisResponse> future;
    std::size_t kind;
    std::size_t trial;
    std::uint64_t op;
    Clock::time_point start;
  };
  std::deque<InFlight> in_flight;
  std::vector<std::pair<std::int64_t, std::size_t>> stored;  // result, op
  std::uint64_t submitted = 0;
  const std::uint64_t block = kKinds * trials.size();  // tracing switches
  // The n-th request of the cycle: six kinds over one trial, then the next.
  auto request_for = [&](std::uint64_t n) {
    explorer::AnalysisRequest request;
    request.trial_id = trials[n / kKinds % trials.size()].id;
    request.kind = kExploreCycle[n % kKinds];
    request.k = kClusters;
    return request;
  };
  auto submit = [&] {
    const std::size_t kind = submitted % kKinds;
    const std::size_t trial = submitted / kKinds % trials.size();
    InFlight f{{}, kind, trial, submitted, Clock::now()};
    f.future = server->submit_async(request_for(submitted));
    in_flight.push_back(std::move(f));
    ++submitted;
  };
  auto complete = [&](InFlight& f) {
    OpSample sample;
    sample.kind = static_cast<int>(f.kind);
    sample.traced = traced_op(opt, f.op, block);
    sample.ms = ms_since(f.start);  // the reply is ready
    try {
      const explorer::AnalysisResponse response = f.future.get();
      if (response.result_id <= 0 || response.kind != r.kinds[f.kind]) {
        throw std::runtime_error("bad response for " + r.kinds[f.kind]);
      }
      stored.push_back({response.result_id, r.ops.size()});
      if (f.kind < 2) check_clustering(response, trials[f.trial]);
      r.rows += trials[f.trial].points;
    } catch (const std::exception& e) {
      sample.ok = false;
      if (r.errors.size() < kMaxErrors) r.errors.push_back(e.what());
    }
    r.ops.push_back(sample);
  };

  // A traced run traces every other block of requests: the engine's own
  // timeline (which attributes the result inserts) is on only during
  // traced blocks, and a block starts only when the previous one has
  // drained, so the registry deltas of traced blocks are theirs alone.
  bool tracing_block = false;
  std::map<std::string, CounterDelta> block_start;
  auto end_block = [&] {
    if (!tracing_block) return;
    telemetry::set_trace_enabled(false);
    add_delta_since(r.traced_counters, block_start);
    tracing_block = false;
  };
  // Warm-up: one block of requests, unrecorded, before the measured phase.
  for (std::uint64_t n = 0; n < block; ++n) {
    try {
      if (server->submit_async(request_for(n)).get().result_id <= 0) {
        throw std::runtime_error("no result stored");
      }
    } catch (const std::exception& e) {
      if (r.errors.size() < kMaxErrors) {
        r.errors.push_back(std::string("warm-up: ") + e.what());
      }
    }
  }
  if (opt.trace) {
    telemetry::TraceBuffer::instance().set_capacity(1 << 16);
    telemetry::TraceBuffer::instance().clear();
  }
  const auto before = registry_values();
  const auto start = Clock::now();
  const auto deadline = deadline_after(opt.seconds);
  auto can_submit = [&] {
    if (!keep_going(opt, submitted, deadline)) return false;
    if (!opt.trace || submitted % block != 0) return true;
    if (!in_flight.empty()) return false;  // let the block drain
    end_block();
    tracing_block = traced_op(opt, submitted, block);
    block_start = registry_values();
    telemetry::set_trace_enabled(tracing_block);
    return true;
  };
  for (;;) {
    while (in_flight.size() < 2 && can_submit()) submit();
    if (in_flight.empty()) break;
    // Complete whichever request finishes first, so each latency ends
    // when its reply is ready.
    auto ready = std::find_if(in_flight.begin(), in_flight.end(), [](auto& f) {
      return f.future.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    });
    if (ready == in_flight.end()) {
      in_flight.front().future.wait_for(std::chrono::microseconds(200));
      continue;
    }
    complete(*ready);
    in_flight.erase(ready);
  }
  end_block();
  r.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  r.counters = delta_since(before);
  log_phase(opt, "measure");
  if (opt.trace) {
    for (const auto& e : telemetry::TraceBuffer::instance().snapshot()) {
      if (std::strcmp(e.cat, "statement") != 0) continue;
      if (e.name.rfind("INSERT INTO analysis_result", 0) == 0) {
        ++r.result_inserts;
        r.result_insert_us += static_cast<double>(e.dur_us);
      } else if (e.name.rfind("SELECT MAX(id) FROM analysis_result", 0) == 0) {
        r.result_insert_us += static_cast<double>(e.dur_us);
      }
    }
  }

  // Every acknowledged result is stored, live and after a reopen.
  auto verify = [&](const std::vector<std::int64_t>& found, const char* when) {
    for (const auto& [id, op] : stored) {
      if (std::find(found.begin(), found.end(), id) == found.end()) {
        note_failure(r, op, std::string(when) + ": result " +
                                std::to_string(id) + " missing");
      }
    }
  };
  std::vector<std::int64_t> found;
  for (const ExploreTrial& t : trials) {
    for (const auto& result : server->browse(t.id)) found.push_back(result.id);
  }
  verify(found, "live");
  explain_probe(*conn, r);
  util::WallTimer close;
  server.reset();
  conn.reset();
  r.close_s = close.seconds();
  util::WallTimer reopen;
  conn = open_archive(archive);
  r.reopen_s.push_back(reopen.seconds());
  log_phase(opt, "reopen");
  found.clear();
  for (auto rs = conn->execute("SELECT id FROM analysis_result"); rs.next();) {
    found.push_back(rs.get_int(1));
  }
  verify(found, "reopened");
  r.peak_rss_mb = peak_rss_mb();
  r.open_archives.push_back(conn);
  return r;
}

}  // namespace perfbench
