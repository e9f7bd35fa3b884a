// Tests for the PerfDMF API layer: schema bootstrap, application /
// experiment / trial management, flexible schema, bulk upload/load,
// selective queries, derived metrics, analysis results.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "api/database_api.h"
#include "api/schema_bootstrap.h"
#include "io/synth.h"
#include "profile/derived.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/file.h"

using namespace perfdmf;
using namespace perfdmf::api;

namespace {

class ApiTest : public ::testing::Test {
 protected:
  ApiTest()
      : connection(std::make_shared<sqldb::Connection>()), api(connection) {}

  std::int64_t make_app_and_experiment() {
    profile::Application app;
    app.name = "sppm";
    api.save_application(app);
    profile::Experiment experiment;
    experiment.application_id = app.id;
    experiment.name = "frost runs";
    api.save_experiment(experiment);
    return experiment.id;
  }

  std::shared_ptr<sqldb::Connection> connection;
  DatabaseAPI api;
};

TEST_F(ApiTest, BootstrapCreatesAllTables) {
  EXPECT_TRUE(schema_present(*connection));
  auto tables = connection->get_meta_data().get_tables();
  // 11 schema tables + 6 virtual system tables.
  EXPECT_EQ(tables.size(), 17u);
  // Idempotent.
  EXPECT_NO_THROW(bootstrap_schema(*connection));
}

TEST_F(ApiTest, SaveAndListApplications) {
  profile::Application app;
  app.name = "miranda";
  app.fields["version"] = "1.0";
  app.fields["description"] = "hydro";
  api.save_application(app);
  EXPECT_GT(app.id, 0);

  auto apps = api.list_applications();
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps[0].name, "miranda");
  EXPECT_EQ(apps[0].fields.at("version"), "1.0");
  EXPECT_EQ(apps[0].fields.at("description"), "hydro");
}

TEST_F(ApiTest, UpdateExistingApplication) {
  profile::Application app;
  app.name = "x";
  api.save_application(app);
  const std::int64_t id = app.id;
  app.name = "y";
  app.fields["version"] = "2";
  api.save_application(app);
  EXPECT_EQ(app.id, id);
  auto loaded = api.get_application(id);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, "y");
  EXPECT_EQ(loaded->fields.at("version"), "2");
}

TEST_F(ApiTest, FindApplicationByName) {
  profile::Application app;
  app.name = "target";
  api.save_application(app);
  EXPECT_TRUE(api.find_application("target").has_value());
  EXPECT_FALSE(api.find_application("absent").has_value());
  EXPECT_FALSE(api.get_application(9999).has_value());
}

TEST_F(ApiTest, FlexibleSchemaUnknownFieldIgnoredWithoutExtend) {
  profile::Application app;
  app.name = "a";
  app.fields["funding_agency"] = "DOE";  // no such column
  api.save_application(app, /*extend_schema=*/false);
  auto loaded = api.get_application(app.id);
  EXPECT_EQ(loaded->fields.count("funding_agency"), 0u);
}

TEST_F(ApiTest, FlexibleSchemaExtendAddsColumn) {
  profile::Application app;
  app.name = "a";
  app.fields["funding_agency"] = "DOE";
  api.save_application(app, /*extend_schema=*/true);
  auto loaded = api.get_application(app.id);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fields.at("funding_agency"), "DOE");
  // The column now exists for everyone (getMetaData discovery).
  auto columns = connection->get_meta_data().get_columns("application");
  bool found = false;
  for (const auto& c : columns) {
    if (c.name == "funding_agency") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ApiTest, FlexibleSchemaDroppedColumnDisappearsFromModel) {
  profile::Application app;
  app.name = "a";
  app.fields["version"] = "1";
  api.save_application(app);
  connection->execute_update("ALTER TABLE application DROP COLUMN version");
  auto loaded = api.get_application(app.id);
  EXPECT_EQ(loaded->fields.count("version"), 0u);
  // Saving again with the stale field must not fail (field is skipped).
  EXPECT_NO_THROW(api.save_application(*loaded));
}

TEST_F(ApiTest, ExperimentRequiresApplication) {
  profile::Experiment experiment;
  experiment.name = "e";
  EXPECT_THROW(api.save_experiment(experiment), InvalidArgument);
  experiment.application_id = 12345;  // dangling
  EXPECT_THROW(api.save_experiment(experiment), DbError);  // FK violation
}

TEST_F(ApiTest, ExperimentAndTrialHierarchy) {
  const std::int64_t experiment_id = make_app_and_experiment();
  profile::Trial trial;
  trial.experiment_id = experiment_id;
  trial.name = "64p";
  trial.node_count = 64;
  trial.contexts_per_node = 1;
  trial.threads_per_context = 1;
  trial.fields["problem_definition"] = "shock tube";
  api.save_trial(trial);

  auto trials = api.list_trials(experiment_id);
  ASSERT_EQ(trials.size(), 1u);
  EXPECT_EQ(trials[0].node_count, 64);
  EXPECT_EQ(trials[0].fields.at("problem_definition"), "shock tube");
}

TEST_F(ApiTest, UploadTrialStoresEverything) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 3;
  spec.event_count = 5;
  spec.extra_metrics = {"PAPI_FP_OPS"};
  spec.atomic_event_count = 1;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);
  EXPECT_GT(trial_id, 0);

  EXPECT_EQ(api.get_metrics(trial_id).size(), 2u);
  EXPECT_EQ(api.get_interval_events(trial_id).size(), 5u);
  EXPECT_EQ(api.get_atomic_events(trial_id).size(), 1u);
  EXPECT_EQ(api.get_interval_data(trial_id).size(), 5u * 3u * 2u);
  EXPECT_EQ(api.get_atomic_data(trial_id).size(), 3u);

  // Summary tables populated: 5 events x 2 metrics rows each.
  auto rs = connection->execute(
      "SELECT COUNT(*) FROM interval_total_summary");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 10);
  auto rs2 = connection->execute("SELECT COUNT(*) FROM interval_mean_summary");
  rs2.next();
  EXPECT_EQ(rs2.get_int(1), 10);
}

TEST_F(ApiTest, UploadThenLoadRoundTrips) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.event_count = 4;
  spec.atomic_event_count = 2;
  auto original = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(original, experiment_id);

  auto loaded = api.load_trial(trial_id);
  EXPECT_EQ(loaded.trial().id, trial_id);
  EXPECT_EQ(loaded.events().size(), original.events().size());
  EXPECT_EQ(loaded.threads().size(), original.threads().size());
  EXPECT_EQ(loaded.interval_point_count(), original.interval_point_count());
  EXPECT_EQ(loaded.atomic_point_count(), original.atomic_point_count());

  original.for_each_interval([&](std::size_t e, std::size_t t, std::size_t m,
                                 const profile::IntervalDataPoint& p) {
    const auto le = loaded.find_event(original.events()[e].name);
    const auto lm = loaded.find_metric(original.metrics()[m].name);
    const auto lt = loaded.find_thread(original.threads()[t]);
    ASSERT_TRUE(le && lm && lt);
    const auto* q = loaded.interval_data(*le, *lt, *lm);
    ASSERT_NE(q, nullptr);
    EXPECT_DOUBLE_EQ(q->inclusive, p.inclusive);
    EXPECT_DOUBLE_EQ(q->exclusive, p.exclusive);
    EXPECT_DOUBLE_EQ(q->num_calls, p.num_calls);
  });
}

TEST_F(ApiTest, LoadMissingTrialThrows) {
  EXPECT_THROW(api.load_trial(777), DbError);
}

TEST_F(ApiTest, SelectiveQueriesWithFilters) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 4;
  spec.event_count = 3;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);

  DatabaseAPI::DataFilter filter;
  filter.node = 2;
  auto rows = api.get_interval_data(trial_id, filter);
  EXPECT_EQ(rows.size(), 3u);  // 3 events x 1 thread x 1 metric
  for (const auto& row : rows) EXPECT_EQ(row.thread.node, 2);

  auto events = api.get_interval_events(trial_id);
  filter.event_id = events[1].id;
  rows = api.get_interval_data(trial_id, filter);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].event_name, events[1].name);

  auto metrics = api.get_metrics(trial_id);
  DatabaseAPI::DataFilter metric_filter;
  metric_filter.metric_id = metrics[0].id;
  EXPECT_EQ(api.get_interval_data(trial_id, metric_filter).size(), 12u);
}

TEST_F(ApiTest, AggregateColumnMatchesManualComputation) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 8;
  spec.event_count = 2;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);
  auto events = api.get_interval_events(trial_id);

  auto summary =
      api.aggregate_interval_column(trial_id, events[0].id, "exclusive");
  EXPECT_EQ(summary.count, 8u);
  // Manual check against raw rows.
  DatabaseAPI::DataFilter filter;
  filter.event_id = events[0].id;
  auto rows = api.get_interval_data(trial_id, filter);
  double manual_min = rows[0].data.exclusive;
  double manual_max = rows[0].data.exclusive;
  double sum = 0.0;
  for (const auto& row : rows) {
    manual_min = std::min(manual_min, row.data.exclusive);
    manual_max = std::max(manual_max, row.data.exclusive);
    sum += row.data.exclusive;
  }
  EXPECT_DOUBLE_EQ(summary.minimum, manual_min);
  EXPECT_DOUBLE_EQ(summary.maximum, manual_max);
  EXPECT_NEAR(summary.mean, sum / 8.0, 1e-9);
  EXPECT_GT(summary.std_dev, 0.0);
}

TEST_F(ApiTest, AggregateRejectsArbitraryColumn) {
  EXPECT_THROW(api.aggregate_interval_column(1, 1, "name; DROP TABLE trial"),
               InvalidArgument);
}

TEST_F(ApiTest, SaveDerivedMetricAppendsToTrial) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.event_count = 3;
  spec.extra_metrics = {"PAPI_FP_OPS"};
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);

  profile::derive_ratio(data, "MFLOPS", "PAPI_FP_OPS", "TIME");
  const std::int64_t metric_id =
      api.save_derived_metric(trial_id, data, "MFLOPS");
  EXPECT_GT(metric_id, 0);

  auto metrics = api.get_metrics(trial_id);
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[2].name, "MFLOPS");
  EXPECT_TRUE(metrics[2].derived);

  DatabaseAPI::DataFilter filter;
  filter.metric_id = metric_id;
  EXPECT_EQ(api.get_interval_data(trial_id, filter).size(), 6u);

  // Reloading the full trial carries the derived metric.
  auto reloaded = api.load_trial(trial_id);
  EXPECT_TRUE(reloaded.find_metric("MFLOPS").has_value());
}

TEST_F(ApiTest, SaveDerivedMetricUnknownNameThrows) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);
  EXPECT_THROW(api.save_derived_metric(trial_id, data, "ABSENT"),
               InvalidArgument);
}

TEST_F(ApiTest, DeleteTrialRemovesEverything) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.event_count = 3;
  spec.atomic_event_count = 1;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);
  api.save_analysis_result(trial_id, "clusters", "kmeans", "{}");

  api.delete_trial(trial_id);
  EXPECT_FALSE(api.get_trial(trial_id).has_value());
  for (const char* table :
       {"metric", "interval_event", "interval_location_profile",
        "interval_total_summary", "interval_mean_summary", "atomic_event",
        "atomic_location_profile", "analysis_result"}) {
    auto rs = connection->execute(std::string("SELECT COUNT(*) FROM ") + table);
    rs.next();
    EXPECT_EQ(rs.get_int(1), 0) << table;
  }
}

TEST_F(ApiTest, AnalysisResultsRoundTrip) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);

  api.save_analysis_result(trial_id, "cluster run 1", "kmeans",
                           "k=3 inertia=12.5");
  api.save_analysis_result(trial_id, "correlation", "pearson", "matrix...");
  auto results = api.list_analysis_results(trial_id);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "cluster run 1");
  EXPECT_EQ(results[1].kind, "pearson");
}

TEST_F(ApiTest, PersistentArchiveSurvivesReopen) {
  util::ScopedTempDir dir;
  const auto db_dir = dir.path() / "archive";
  std::int64_t trial_id = 0;
  std::size_t expected_points = 0;
  {
    auto conn = std::make_shared<sqldb::Connection>(db_dir);
    DatabaseAPI file_api(conn);
    profile::Application app;
    app.name = "persisted";
    file_api.save_application(app);
    profile::Experiment experiment;
    experiment.application_id = app.id;
    experiment.name = "e";
    file_api.save_experiment(experiment);
    io::synth::TrialSpec spec;
    spec.nodes = 2;
    spec.event_count = 4;
    auto data = io::synth::generate_trial(spec);
    expected_points = data.interval_point_count();
    trial_id = file_api.upload_trial(data, experiment.id);
  }
  {
    auto conn = std::make_shared<sqldb::Connection>(db_dir);
    DatabaseAPI file_api(conn);
    auto apps = file_api.list_applications();
    ASSERT_EQ(apps.size(), 1u);
    EXPECT_EQ(apps[0].name, "persisted");
    auto loaded = file_api.load_trial(trial_id);
    EXPECT_EQ(loaded.interval_point_count(), expected_points);
  }
}

}  // namespace

namespace {

TEST(ApiPersistence, FlexibleSchemaColumnsSurviveReopen) {
  util::ScopedTempDir dir;
  const auto db_dir = dir.path() / "archive";
  {
    auto conn = std::make_shared<sqldb::Connection>(db_dir);
    DatabaseAPI api(conn);
    profile::Application app;
    app.name = "app";
    app.fields["funding_agency"] = "DOE";
    api.save_application(app, /*extend_schema=*/true);
  }
  {
    auto conn = std::make_shared<sqldb::Connection>(db_dir);
    DatabaseAPI api(conn);
    auto apps = api.list_applications();
    ASSERT_EQ(apps.size(), 1u);
    EXPECT_EQ(apps[0].fields.at("funding_agency"), "DOE");
    // The reopened schema still accepts the extended column on save.
    apps[0].fields["funding_agency"] = "NSF";
    EXPECT_NO_THROW(api.save_application(apps[0]));
    EXPECT_EQ(api.get_application(apps[0].id)->fields.at("funding_agency"),
              "NSF");
  }
}

}  // namespace

namespace {

TEST(ApiUpload, ExtendSchemaStoresTrialMetadataFields) {
  auto connection = std::make_shared<sqldb::Connection>();
  DatabaseAPI api(connection);
  profile::Application app;
  app.name = "a";
  api.save_application(app);
  profile::Experiment experiment;
  experiment.application_id = app.id;
  experiment.name = "e";
  api.save_experiment(experiment);

  io::synth::TrialSpec spec;
  auto data = io::synth::generate_trial(spec);
  data.trial().fields["OS"] = "Linux";
  data.trial().fields["Hostname"] = "bgl0042";

  // Without extension the fields are dropped...
  const std::int64_t plain = api.upload_trial(data, experiment.id);
  EXPECT_EQ(api.get_trial(plain)->fields.count("OS"), 0u);
  // ...with extension they become flexible-schema columns.
  const std::int64_t extended =
      api.upload_trial(data, experiment.id, /*extend_schema=*/true);
  auto stored = api.get_trial(extended);
  EXPECT_EQ(stored->fields.at("OS"), "Linux");
  EXPECT_EQ(stored->fields.at("Hostname"), "bgl0042");
}

}  // namespace

// ------------------------------------------- multi-row upload boundaries

namespace {

/// A trial with `points` interval points and as many atomic points, each
/// on its own event, atomic event and thread, so every table the upload
/// fills (events, profiles, summaries) crosses the same multi-row INSERT
/// boundaries. Every value differs per point, and some of them change
/// under any lossy real encoding.
profile::TrialData boundary_trial(std::size_t points) {
  profile::TrialData data;
  data.trial().name = "boundary " + std::to_string(points);
  const std::size_t metric = data.intern_metric("TIME");
  for (std::size_t i = 0; i < points; ++i) {
    const auto n = static_cast<std::int32_t>(i);
    const double x = static_cast<double>(i);
    const std::size_t thread = data.intern_thread({n, 0, 0});
    const std::size_t event = data.intern_event("e" + std::to_string(i), "G");
    profile::IntervalDataPoint p;
    p.inclusive = 0.1 * (x + 1);
    p.exclusive = i % 2 ? -0.0 : 1.0 / (x + 3);
    p.inclusive_pct = 100.0 / (x + 7);
    p.exclusive_pct = 4.9406564584124654e-324 * x;
    p.inclusive_per_call = 1e22 + x * 1e7;
    p.num_calls = x + 1;
    p.num_subrs = 2.2250738585072014e-308 * (x + 1);
    data.set_interval_data(event, thread, metric, p);
    const std::size_t atomic = data.intern_atomic_event("a" + std::to_string(i));
    profile::AtomicDataPoint a;
    a.sample_count = x;
    a.maximum = 1.7976931348623157e308 / (x + 1);
    a.minimum = -1.0 / 3.0 - x;
    a.mean = 0.3 * x;
    a.std_dev = 1e-300 * x;
    data.set_atomic_data(atomic, thread, a);
  }
  data.infer_dimensions();
  return data;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// `loaded` holds exactly `original`'s events, in their order, and every
/// point bit for bit.
void expect_same_trial(const profile::TrialData& original,
                       const profile::TrialData& loaded) {
  ASSERT_EQ(loaded.events().size(), original.events().size());
  for (std::size_t e = 0; e < original.events().size(); ++e) {
    EXPECT_EQ(loaded.events()[e].name, original.events()[e].name);
  }
  ASSERT_EQ(loaded.atomic_events().size(), original.atomic_events().size());
  for (std::size_t a = 0; a < original.atomic_events().size(); ++a) {
    EXPECT_EQ(loaded.atomic_events()[a].name, original.atomic_events()[a].name);
  }
  ASSERT_EQ(loaded.interval_point_count(), original.interval_point_count());
  ASSERT_EQ(loaded.atomic_point_count(), original.atomic_point_count());
  original.for_each_interval([&](std::size_t e, std::size_t t, std::size_t m,
                                 const profile::IntervalDataPoint& p) {
    const auto* q = loaded.interval_data(
        *loaded.find_event(original.events()[e].name),
        *loaded.find_thread(original.threads()[t]),
        *loaded.find_metric(original.metrics()[m].name));
    ASSERT_NE(q, nullptr);
    EXPECT_TRUE(same_bits(q->inclusive, p.inclusive));
    EXPECT_TRUE(same_bits(q->exclusive, p.exclusive));
    EXPECT_TRUE(same_bits(q->inclusive_pct, p.inclusive_pct));
    EXPECT_TRUE(same_bits(q->exclusive_pct, p.exclusive_pct));
    EXPECT_TRUE(same_bits(q->inclusive_per_call, p.inclusive_per_call));
    EXPECT_TRUE(same_bits(q->num_calls, p.num_calls));
    EXPECT_TRUE(same_bits(q->num_subrs, p.num_subrs));
  });
  original.for_each_atomic([&](std::size_t a, std::size_t t,
                               const profile::AtomicDataPoint& p) {
    const auto* q = loaded.atomic_data(
        *loaded.find_atomic_event(original.atomic_events()[a].name),
        *loaded.find_thread(original.threads()[t]));
    ASSERT_NE(q, nullptr);
    EXPECT_TRUE(same_bits(q->sample_count, p.sample_count));
    EXPECT_TRUE(same_bits(q->maximum, p.maximum));
    EXPECT_TRUE(same_bits(q->minimum, p.minimum));
    EXPECT_TRUE(same_bits(q->mean, p.mean));
    EXPECT_TRUE(same_bits(q->std_dev, p.std_dev));
  });
}

std::int64_t count_rows(sqldb::Connection& connection, const std::string& sql) {
  auto rs = connection.execute(sql);
  rs.next();
  return rs.get_int(1);
}

std::int64_t make_experiment(DatabaseAPI& api) {
  profile::Application app;
  app.name = "boundaries";
  api.save_application(app);
  profile::Experiment experiment;
  experiment.application_id = app.id;
  experiment.name = "e";
  api.save_experiment(experiment);
  return experiment.id;
}

const std::size_t kBoundarySizes[] = {0, 1, 127, 128, 129, 257};

TEST(ApiUpload, ChunkBoundariesRoundTripLiveAfterReplayAndFromSnapshot) {
  util::ScopedTempDir dir;
  const auto db_dir = dir.path() / "archive";
  const auto replay_dir = dir.path() / "replay";
  std::vector<std::int64_t> trial_ids;
  auto check_all = [&](DatabaseAPI& api) {
    for (std::size_t i = 0; i < trial_ids.size(); ++i) {
      SCOPED_TRACE("points = " + std::to_string(kBoundarySizes[i]));
      expect_same_trial(boundary_trial(kBoundarySizes[i]),
                        api.load_trial(trial_ids[i]));
    }
  };
  {
    auto connection = std::make_shared<sqldb::Connection>(db_dir);
    DatabaseAPI api(connection);
    const std::int64_t experiment_id = make_experiment(api);
    for (std::size_t points : kBoundarySizes) {
      trial_ids.push_back(api.upload_trial(boundary_trial(points), experiment_id));
    }
    check_all(api);
    // Rows get their RowIds in upload order, trial by trial and point by
    // point (the table has no id column; a scan walks RowId order).
    auto rs = connection->execute("SELECT node FROM interval_location_profile");
    for (std::size_t points : kBoundarySizes) {
      for (std::size_t i = 0; i < points; ++i) {
        ASSERT_TRUE(rs.next());
        EXPECT_EQ(rs.get_int(1), static_cast<std::int64_t>(i));
      }
    }
    EXPECT_FALSE(rs.next());
    // A copy taken before the close-time checkpoint reopens by replaying
    // the multi-row INSERTs from the WAL.
    std::filesystem::copy(db_dir, replay_dir,
                          std::filesystem::copy_options::recursive);
  }
  {
    ASSERT_NE(util::read_file(replay_dir / "wal.log")
                  .find("INSERT INTO interval_location_profile"),
              std::string::npos);
    auto connection = std::make_shared<sqldb::Connection>(replay_dir);
    EXPECT_TRUE(connection->recovery_report().clean());
    EXPECT_GT(connection->recovery_report().replayed_records, 0u);
    DatabaseAPI api(connection);
    check_all(api);
  }
  {
    // The original was checkpointed on close: it reopens from the snapshot.
    auto connection = std::make_shared<sqldb::Connection>(db_dir);
    EXPECT_TRUE(connection->recovery_report().clean());
    EXPECT_EQ(connection->recovery_report().replayed_records, 0u);
    DatabaseAPI api(connection);
    check_all(api);
  }
}

TEST(ApiUpload, DerivedMetricCrossesChunkBoundaries) {
  auto connection = std::make_shared<sqldb::Connection>();
  DatabaseAPI api(connection);
  const std::int64_t experiment_id = make_experiment(api);
  profile::TrialData data = boundary_trial(257);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);
  const std::size_t derived = data.intern_metric("DOUBLE_TIME");
  data.metric(derived).derived = true;
  for (std::size_t i = 0; i < 257; ++i) {
    profile::IntervalDataPoint p = *data.interval_data(i, i, 0);
    p.inclusive *= 2;
    data.set_interval_data(i, i, derived, p);
  }
  api.save_derived_metric(trial_id, data, "DOUBLE_TIME");
  expect_same_trial(data, api.load_trial(trial_id));
}

/// Trials and their rows in every table the upload writes.
std::vector<std::int64_t> row_counts(sqldb::Connection& connection) {
  std::vector<std::int64_t> counts;
  for (const char* table :
       {"trial", "metric", "interval_event", "atomic_event",
        "interval_location_profile", "interval_total_summary",
        "interval_mean_summary", "atomic_location_profile"}) {
    counts.push_back(
        count_rows(connection, std::string("SELECT COUNT(*) FROM ") + table));
  }
  return counts;
}

TEST(ApiUpload, FailureInMiddleChunkLeavesNoRowOfTheTrial) {
  auto connection = std::make_shared<sqldb::Connection>();
  DatabaseAPI api(connection);
  const std::int64_t experiment_id = make_experiment(api);
  api.upload_trial(boundary_trial(3), experiment_id);
  const auto before = row_counts(*connection);
  // A unique index that point 200 of the next trial violates: the upload's
  // second interval_location_profile INSERT (rows 128..255) fails after
  // the first one and every event row went in.
  connection->execute_update(
      "CREATE UNIQUE INDEX ilp_inclusive ON interval_location_profile (inclusive)");
  profile::TrialData data = boundary_trial(257);
  profile::IntervalDataPoint clash = *data.interval_data(200, 200, 0);
  clash.inclusive = data.interval_data(150, 150, 0)->inclusive;
  data.set_interval_data(200, 200, 0, clash);
  EXPECT_THROW(api.upload_trial(data, experiment_id), DbError);
  EXPECT_EQ(row_counts(*connection), before);
  EXPECT_EQ(count_rows(*connection, "SELECT COUNT(*) FROM trial WHERE name = "
                                    "'boundary 257'"),
            0);
}

TEST(ApiUpload, FailedCommitLeavesNoRowOfTheTrial) {
  util::ScopedTempDir dir;
  auto connection = std::make_shared<sqldb::Connection>(dir.path() / "archive");
  DatabaseAPI api(connection);
  const std::int64_t experiment_id = make_experiment(api);
  api.upload_trial(boundary_trial(3), experiment_id);
  const auto before = row_counts(*connection);
  // The upload commits twice: the trial row (save_trial), then every
  // other row in one transaction. Fail the second commit's WAL write.
  util::failpoint::enable("wal.commit", util::FailAction::kError,
                          /*countdown=*/2);
  EXPECT_THROW(api.upload_trial(boundary_trial(257), experiment_id), IoError);
  util::failpoint::clear_all();
  EXPECT_EQ(row_counts(*connection), before);
  // The archive stays writable, and a retry stores the whole trial.
  const std::int64_t trial_id =
      api.upload_trial(boundary_trial(257), experiment_id);
  expect_same_trial(boundary_trial(257), api.load_trial(trial_id));
}

}  // namespace
