#include "api/database_api.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <optional>

#include "api/schema_bootstrap.h"
#include "telemetry/metrics.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/timer.h"

namespace perfdmf::api {

using sqldb::Params;
using sqldb::ResultSet;
using sqldb::Value;

namespace {

const std::vector<std::string> kApplicationCore = {"id", "name"};
const std::vector<std::string> kExperimentCore = {"id", "application", "name"};
const std::vector<std::string> kTrialCore = {"id",         "experiment",
                                             "name",       "node_count",
                                             "contexts_per_node",
                                             "threads_per_context"};

bool is_core(const std::string& column, const std::vector<std::string>& core) {
  for (const auto& c : core) {
    if (util::iequals(c, column)) return true;
  }
  return false;
}

/// RAII transaction for multi-statement read-modify-write sequences that
/// must not interleave with writers on sibling connections (the exclusive
/// lock is held from begin() to commit()). Joins an enclosing transaction
/// when the calling thread already owns one — the outer owner commits —
/// and rolls back on destruction if commit() was never reached.
class ScopedTransaction {
 public:
  explicit ScopedTransaction(sqldb::Connection& connection)
      : connection_(connection),
        owned_(!connection.database().locks().owned_by_this_thread()) {
    if (owned_) connection_.begin();
  }

  ~ScopedTransaction() {
    if (owned_ && !done_) {
      try {
        connection_.rollback();
      } catch (...) {
        // Unwinding already; the original exception carries the cause.
      }
    }
  }

  void commit() {
    if (owned_) connection_.commit();
    done_ = true;
  }

  ScopedTransaction(const ScopedTransaction&) = delete;
  ScopedTransaction& operator=(const ScopedTransaction&) = delete;

 private:
  sqldb::Connection& connection_;
  bool owned_;
  bool done_ = false;
};

/// Roll back the calling thread's transaction if it is still open: a
/// commit() that failed has already ended it and released its lock.
void rollback_if_open(sqldb::Connection& connection) {
  if (connection.database().locks().owned_by_this_thread()) connection.rollback();
}

/// Rows per multi-row INSERT in the bulk upload: enough that the
/// per-statement costs (governance, plan binding, the WAL frame's SQL
/// text) are spread thin, few enough that one statement's parameters stay
/// bounded on E1-sized trials.
constexpr std::size_t kRowsPerInsert = 128;

/// Sends one table's rows as multi-row INSERTs of at most kRowsPerInsert
/// rows, in the order they are added, so RowIds are assigned as a
/// row-at-a-time loop would assign them. The full-size statement is
/// prepared once; the final partial one once, by finish().
class RowBatcher {
 public:
  RowBatcher(sqldb::Connection& connection, const std::string& table,
             const std::vector<std::string>& columns)
      : connection_(connection),
        head_("INSERT INTO " + table + " (" + util::join(columns, ", ") +
              ") VALUES "),
        width_(columns.size()) {
    pending_.reserve(kRowsPerInsert * width_);
  }

  void add(std::initializer_list<Value> row) {
    pending_.insert(pending_.end(), row);
    if (pending_.size() == kRowsPerInsert * width_) {
      if (!full_) full_.emplace(connection_, insert_sql(kRowsPerInsert));
      send(*full_);
    }
  }

  /// Send the rows still pending; call once, after the last add().
  void finish() {
    if (pending_.empty()) return;
    auto stmt = connection_.prepare(insert_sql(pending_.size() / width_));
    send(stmt);
  }

 private:
  std::string insert_sql(std::size_t rows) const {
    std::string tuple = "(?";
    for (std::size_t c = 1; c < width_; ++c) tuple += ",?";
    tuple += ')';
    std::string sql = head_;
    sql.reserve(head_.size() + rows * (tuple.size() + 1));
    for (std::size_t r = 0; r < rows; ++r) {
      if (r) sql += ',';
      sql += tuple;
    }
    return sql;
  }

  void send(sqldb::PreparedStatement& stmt) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      stmt.set_value(i + 1, std::move(pending_[i]));
    }
    stmt.execute_update();
    pending_.clear();
  }

  sqldb::Connection& connection_;
  std::string head_;  // "INSERT INTO <table> (<columns>) VALUES "
  std::size_t width_;
  Params pending_;
  std::optional<sqldb::PreparedStatement> full_;
};

const std::vector<std::string> kIntervalProfileColumns = {
    "interval_event", "node", "context", "thread", "metric",
    "inclusive_percentage", "inclusive", "exclusive_percentage", "exclusive",
    "inclusive_per_call", "num_calls", "num_subrs"};

void add_interval_row(RowBatcher& rows, std::int64_t event_id,
                      const profile::ThreadId& thread, std::int64_t metric_id,
                      const profile::IntervalDataPoint& p) {
  rows.add({Value(event_id), Value(std::int64_t{thread.node}),
            Value(std::int64_t{thread.context}), Value(std::int64_t{thread.thread}),
            Value(metric_id), Value(p.inclusive_pct), Value(p.inclusive),
            Value(p.exclusive_pct), Value(p.exclusive), Value(p.inclusive_per_call),
            Value(p.num_calls), Value(p.num_subrs)});
}

// Profile points as the queries below select them: the location and
// (interval) metric, then the data, decoded from the row's columns at
// (0-based) `at` onward.
const std::string kIntervalPointColumns =
    "p.node, p.context, p.thread, p.metric, p.inclusive, p.exclusive,"
    " p.inclusive_percentage, p.exclusive_percentage, p.inclusive_per_call,"
    " p.num_calls, p.num_subrs";
const std::string kIntervalOfTrial =
    " FROM interval_event e JOIN interval_location_profile p"
    " ON p.interval_event = e.id WHERE e.trial = ?";
const std::string kAtomicPointColumns =
    "p.node, p.context, p.thread, p.sample_count, p.maximum_value,"
    " p.minimum_value, p.mean_value, p.standard_deviation";
const std::string kAtomicOfTrial =
    " FROM atomic_event e JOIN atomic_location_profile p"
    " ON p.atomic_event = e.id WHERE e.trial = ?";

using Cells = std::span<const Value>;

profile::ThreadId read_thread(Cells row, std::size_t at) {
  return {static_cast<std::int32_t>(row[at].as_int()),
          static_cast<std::int32_t>(row[at + 1].as_int()),
          static_cast<std::int32_t>(row[at + 2].as_int())};
}

profile::IntervalDataPoint read_interval_point(Cells row, std::size_t at) {
  profile::IntervalDataPoint p;
  p.inclusive = row[at].as_real();
  p.exclusive = row[at + 1].as_real();
  p.inclusive_pct = row[at + 2].as_real();
  p.exclusive_pct = row[at + 3].as_real();
  p.inclusive_per_call = row[at + 4].as_real();
  p.num_calls = row[at + 5].as_real();
  p.num_subrs = row[at + 6].as_real();
  return p;
}

profile::AtomicDataPoint read_atomic_point(Cells row, std::size_t at) {
  profile::AtomicDataPoint p;
  p.sample_count = row[at].as_real();
  p.maximum = row[at + 1].as_real();
  p.minimum = row[at + 2].as_real();
  p.mean = row[at + 3].as_real();
  p.std_dev = row[at + 4].as_real();
  return p;
}

}  // namespace

DatabaseAPI::DatabaseAPI(std::shared_ptr<sqldb::Connection> connection)
    : connection_(std::move(connection)) {
  if (!schema_present(*connection_)) bootstrap_schema(*connection_);
}

// ---------------------------------------------------------- flexible rows

profile::Metadata DatabaseAPI::read_fields(
    const std::string& table, ResultSet& rs,
    const std::vector<std::string>& core_columns) {
  profile::Metadata fields;
  for (const auto& column : rs.column_names()) {
    if (is_core(column, core_columns)) continue;
    if (!rs.is_null(column)) fields[column] = rs.get_string(column);
  }
  (void)table;
  return fields;
}

void DatabaseAPI::save_row_with_fields(
    const std::string& table,
    const std::vector<std::pair<std::string, Value>>& core_values,
    std::int64_t& id, const profile::Metadata& fields, bool extend_schema) {
  // The reflect → extend → write sequence below is a check-then-act:
  // without a transaction, two connections saving rows with the same new
  // metadata column can both see it missing and both ALTER, and the
  // MAX(id) fetch after the INSERT can read a row another connection just
  // assigned. The transaction holds the exclusive lock across the whole
  // sequence, making it atomic against sibling connections.
  ScopedTransaction txn(*connection_);

  // Discover the live column set (flexible schema, paper §3.2).
  auto meta = connection_->get_meta_data();
  auto columns = meta.get_columns(table);
  auto has_column = [&](const std::string& name) {
    for (const auto& c : columns) {
      if (util::iequals(c.name, name)) return true;
    }
    return false;
  };

  if (extend_schema) {
    bool altered = false;
    for (const auto& [name, value] : fields) {
      if (!has_column(name)) {
        connection_->execute_update("ALTER TABLE " + table + " ADD COLUMN \"" +
                                    name + "\" TEXT");
        altered = true;
      }
    }
    if (altered) columns = meta.get_columns(table);
  }

  // Collect the (column, value) pairs we can store.
  std::vector<std::pair<std::string, Value>> writes = core_values;
  for (const auto& [name, value] : fields) {
    if (is_core(name, {"id"})) continue;
    if (has_column(name)) writes.emplace_back(name, Value(value));
  }

  if (id == profile::kNoId) {
    std::string sql = "INSERT INTO " + table + " (";
    std::string placeholders;
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (i) {
        sql += ", ";
        placeholders += ", ";
      }
      sql += "\"" + writes[i].first + "\"";
      placeholders += "?";
    }
    sql += ") VALUES (" + placeholders + ")";
    auto stmt = connection_->prepare(sql);
    for (std::size_t i = 0; i < writes.size(); ++i) {
      stmt.set_value(i + 1, writes[i].second);
    }
    stmt.execute_update();
    // Fetch the id just assigned (safe: the surrounding transaction holds
    // the exclusive lock across the INSERT and this read).
    auto rs = connection_->execute("SELECT MAX(id) FROM " + table);
    rs.next();
    id = rs.get_int(1);
  } else {
    std::string sql = "UPDATE " + table + " SET ";
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (i) sql += ", ";
      sql += "\"" + writes[i].first + "\" = ?";
    }
    sql += " WHERE id = ?";
    auto stmt = connection_->prepare(sql);
    for (std::size_t i = 0; i < writes.size(); ++i) {
      stmt.set_value(i + 1, writes[i].second);
    }
    stmt.set_int(writes.size() + 1, id);
    if (stmt.execute_update() == 0) {
      throw DbError("no row with id " + std::to_string(id) + " in " + table);
    }
  }

  txn.commit();
}

// ------------------------------------------------------------ application

std::vector<profile::Application> DatabaseAPI::list_applications() {
  auto rs = connection_->execute("SELECT * FROM application ORDER BY id");
  std::vector<profile::Application> out;
  while (rs.next()) {
    profile::Application app;
    app.id = rs.get_int("id");
    app.name = rs.get_string("name");
    app.fields = read_fields("application", rs, kApplicationCore);
    out.push_back(std::move(app));
  }
  return out;
}

std::optional<profile::Application> DatabaseAPI::get_application(std::int64_t id) {
  auto stmt = connection_->prepare("SELECT * FROM application WHERE id = ?");
  stmt.set_int(1, id);
  auto rs = stmt.execute_query();
  if (!rs.next()) return std::nullopt;
  profile::Application app;
  app.id = rs.get_int("id");
  app.name = rs.get_string("name");
  app.fields = read_fields("application", rs, kApplicationCore);
  return app;
}

std::optional<profile::Application> DatabaseAPI::find_application(
    const std::string& name) {
  auto stmt = connection_->prepare("SELECT id FROM application WHERE name = ?");
  stmt.set_string(1, name);
  auto rs = stmt.execute_query();
  if (!rs.next()) return std::nullopt;
  return get_application(rs.get_int(1));
}

void DatabaseAPI::save_application(profile::Application& app, bool extend_schema) {
  save_row_with_fields("application", {{"name", Value(app.name)}}, app.id,
                       app.fields, extend_schema);
}

// ------------------------------------------------------------- experiment

std::vector<profile::Experiment> DatabaseAPI::list_experiments(
    std::int64_t application_id) {
  auto stmt = connection_->prepare(
      "SELECT * FROM experiment WHERE application = ? ORDER BY id");
  stmt.set_int(1, application_id);
  auto rs = stmt.execute_query();
  std::vector<profile::Experiment> out;
  while (rs.next()) {
    profile::Experiment experiment;
    experiment.id = rs.get_int("id");
    experiment.application_id = rs.get_int("application");
    experiment.name = rs.get_string("name");
    experiment.fields = read_fields("experiment", rs, kExperimentCore);
    out.push_back(std::move(experiment));
  }
  return out;
}

std::optional<profile::Experiment> DatabaseAPI::get_experiment(std::int64_t id) {
  auto stmt = connection_->prepare("SELECT * FROM experiment WHERE id = ?");
  stmt.set_int(1, id);
  auto rs = stmt.execute_query();
  if (!rs.next()) return std::nullopt;
  profile::Experiment experiment;
  experiment.id = rs.get_int("id");
  experiment.application_id = rs.get_int("application");
  experiment.name = rs.get_string("name");
  experiment.fields = read_fields("experiment", rs, kExperimentCore);
  return experiment;
}

void DatabaseAPI::save_experiment(profile::Experiment& experiment,
                                  bool extend_schema) {
  if (experiment.application_id == profile::kNoId) {
    throw InvalidArgument("experiment.application_id must be set before save");
  }
  save_row_with_fields("experiment",
                       {{"application", Value(experiment.application_id)},
                        {"name", Value(experiment.name)}},
                       experiment.id, experiment.fields, extend_schema);
}

// ------------------------------------------------------------------ trial

std::vector<profile::Trial> DatabaseAPI::list_trials(std::int64_t experiment_id) {
  auto stmt =
      connection_->prepare("SELECT * FROM trial WHERE experiment = ? ORDER BY id");
  stmt.set_int(1, experiment_id);
  auto rs = stmt.execute_query();
  std::vector<profile::Trial> out;
  while (rs.next()) {
    profile::Trial trial;
    trial.id = rs.get_int("id");
    trial.experiment_id = rs.get_int("experiment");
    trial.name = rs.get_string("name");
    if (!rs.is_null("node_count")) trial.node_count = rs.get_int("node_count");
    if (!rs.is_null("contexts_per_node")) {
      trial.contexts_per_node = rs.get_int("contexts_per_node");
    }
    if (!rs.is_null("threads_per_context")) {
      trial.threads_per_context = rs.get_int("threads_per_context");
    }
    trial.fields = read_fields("trial", rs, kTrialCore);
    out.push_back(std::move(trial));
  }
  return out;
}

std::optional<profile::Trial> DatabaseAPI::get_trial(std::int64_t id) {
  auto stmt = connection_->prepare("SELECT * FROM trial WHERE id = ?");
  stmt.set_int(1, id);
  auto rs = stmt.execute_query();
  if (!rs.next()) return std::nullopt;
  profile::Trial trial;
  trial.id = rs.get_int("id");
  trial.experiment_id = rs.get_int("experiment");
  trial.name = rs.get_string("name");
  if (!rs.is_null("node_count")) trial.node_count = rs.get_int("node_count");
  if (!rs.is_null("contexts_per_node")) {
    trial.contexts_per_node = rs.get_int("contexts_per_node");
  }
  if (!rs.is_null("threads_per_context")) {
    trial.threads_per_context = rs.get_int("threads_per_context");
  }
  trial.fields = read_fields("trial", rs, kTrialCore);
  return trial;
}

void DatabaseAPI::save_trial(profile::Trial& trial, bool extend_schema) {
  if (trial.experiment_id == profile::kNoId) {
    throw InvalidArgument("trial.experiment_id must be set before save");
  }
  save_row_with_fields(
      "trial",
      {{"experiment", Value(trial.experiment_id)},
       {"name", Value(trial.name)},
       {"node_count", Value(trial.node_count)},
       {"contexts_per_node", Value(trial.contexts_per_node)},
       {"threads_per_context", Value(trial.threads_per_context)}},
      trial.id, trial.fields, extend_schema);
}

void DatabaseAPI::delete_trial(std::int64_t trial_id) {
  // Children first (the engine enforces restrict semantics on FKs). The
  // engine has no subqueries, so collect child ids through the API.
  std::vector<std::int64_t> event_ids;
  for (const auto& event : get_interval_events(trial_id)) {
    event_ids.push_back(event.id);
  }
  std::vector<std::int64_t> atomic_ids;
  for (const auto& event : get_atomic_events(trial_id)) {
    atomic_ids.push_back(event.id);
  }

  connection_->begin();
  try {
    auto run_for = [&](const std::string& sql,
                       const std::vector<std::int64_t>& ids) {
      auto stmt = connection_->prepare(sql);
      for (std::int64_t id : ids) {
        stmt.set_int(1, id);
        stmt.execute_update();
      }
    };
    run_for("DELETE FROM interval_location_profile WHERE interval_event = ?",
            event_ids);
    run_for("DELETE FROM interval_total_summary WHERE interval_event = ?",
            event_ids);
    run_for("DELETE FROM interval_mean_summary WHERE interval_event = ?",
            event_ids);
    run_for("DELETE FROM atomic_location_profile WHERE atomic_event = ?",
            atomic_ids);
    run_for("DELETE FROM interval_event WHERE trial = ?", {trial_id});
    run_for("DELETE FROM atomic_event WHERE trial = ?", {trial_id});
    run_for("DELETE FROM metric WHERE trial = ?", {trial_id});
    run_for("DELETE FROM analysis_result WHERE trial = ?", {trial_id});
    run_for("DELETE FROM trial WHERE id = ?", {trial_id});
    connection_->commit();
  } catch (...) {
    rollback_if_open(*connection_);
    throw;
  }
}

// ------------------------------------------------------------ bulk upload

std::int64_t DatabaseAPI::upload_trial(const profile::TrialData& data,
                                       std::int64_t experiment_id,
                                       bool extend_schema) {
  util::WallTimer upload_timer;
  std::uint64_t uploaded_rows = 0;
  profile::Trial trial = data.trial();
  trial.id = profile::kNoId;
  trial.experiment_id = experiment_id;
  save_trial(trial, extend_schema);

  connection_->begin();
  try {
    // Metrics.
    std::vector<std::int64_t> metric_ids;
    {
      RowBatcher rows(*connection_, "metric", {"trial", "name", "derived"});
      for (const auto& metric : data.metrics()) {
        rows.add({Value(trial.id), Value(metric.name),
                  Value(std::int64_t{metric.derived ? 1 : 0})});
      }
      rows.finish();
      auto rs = connection_->execute(
          "SELECT id FROM metric WHERE trial = " + std::to_string(trial.id) +
          " ORDER BY id");
      while (rs.next()) metric_ids.push_back(rs.get_int(1));
    }

    // Interval and atomic events.
    auto insert_events = [&](const std::string& table, const auto& events) {
      RowBatcher rows(*connection_, table, {"trial", "name", "group_name"});
      for (const auto& event : events) {
        rows.add({Value(trial.id), Value(event.name), Value(event.group)});
      }
      rows.finish();
      std::vector<std::int64_t> ids;
      auto rs = connection_->execute("SELECT id FROM " + table + " WHERE trial = " +
                                     std::to_string(trial.id) + " ORDER BY id");
      while (rs.next()) ids.push_back(rs.get_int(1));
      return ids;
    };
    const std::vector<std::int64_t> event_ids =
        insert_events("interval_event", data.events());
    const std::vector<std::int64_t> atomic_ids =
        insert_events("atomic_event", data.atomic_events());

    // Location profiles (the bulk of the data: one row per point).
    {
      RowBatcher rows(*connection_, "interval_location_profile",
                      kIntervalProfileColumns);
      data.for_each_interval([&](std::size_t e, std::size_t t, std::size_t m,
                                 const profile::IntervalDataPoint& p) {
        add_interval_row(rows, event_ids.at(e), data.threads()[t],
                         metric_ids.at(m), p);
      });
      rows.finish();
    }

    // Total & mean summary tables.
    {
      const std::vector<std::string> columns = {
          "interval_event", "metric", "inclusive_percentage", "inclusive",
          "exclusive_percentage", "exclusive", "inclusive_per_call",
          "num_calls", "num_subrs"};
      RowBatcher totals(*connection_, "interval_total_summary", columns);
      RowBatcher means(*connection_, "interval_mean_summary", columns);
      auto add_summary = [&](RowBatcher& rows, const profile::IntervalSummary& s,
                             const profile::IntervalDataPoint& p) {
        rows.add({Value(event_ids.at(s.event_index)),
                  Value(metric_ids.at(s.metric_index)), Value(p.inclusive_pct),
                  Value(p.inclusive), Value(p.exclusive_pct), Value(p.exclusive),
                  Value(p.inclusive_per_call), Value(p.num_calls),
                  Value(p.num_subrs)});
      };
      const auto summaries = profile::compute_interval_summaries(data);
      for (const auto& s : summaries) {
        add_summary(totals, s, s.total);
        add_summary(means, s, s.mean);
      }
      totals.finish();
      means.finish();
      uploaded_rows += 2 * summaries.size();
    }

    // Atomic location profiles.
    {
      RowBatcher rows(*connection_, "atomic_location_profile",
                      {"atomic_event", "node", "context", "thread",
                       "sample_count", "maximum_value", "minimum_value",
                       "mean_value", "standard_deviation"});
      data.for_each_atomic([&](std::size_t a, std::size_t t,
                               const profile::AtomicDataPoint& p) {
        const profile::ThreadId& id = data.threads()[t];
        rows.add({Value(atomic_ids.at(a)), Value(std::int64_t{id.node}),
                  Value(std::int64_t{id.context}), Value(std::int64_t{id.thread}),
                  Value(p.sample_count), Value(p.maximum), Value(p.minimum),
                  Value(p.mean), Value(p.std_dev)});
      });
      rows.finish();
    }

    connection_->commit();
  } catch (...) {
    rollback_if_open(*connection_);
    // Remove the orphaned trial row written before the transaction.
    auto stmt = connection_->prepare("DELETE FROM trial WHERE id = ?");
    stmt.set_int(1, trial.id);
    stmt.execute_update();
    throw;
  }

  uploaded_rows += data.metrics().size() + data.events().size() +
                   data.atomic_events().size() + data.interval_point_count() +
                   data.atomic_point_count();
  auto& registry = telemetry::MetricsRegistry::instance();
  static auto& uploads = registry.counter("api.trial.uploads");
  static auto& upload_rows = registry.counter("api.trial.upload_rows");
  static auto& upload_micros = registry.histogram("api.trial.upload_micros");
  uploads.add();
  upload_rows.add(uploaded_rows);
  upload_micros.record(static_cast<std::uint64_t>(upload_timer.seconds() * 1e6));
  return trial.id;
}

// -------------------------------------------------------------- full load

profile::TrialData DatabaseAPI::load_trial(std::int64_t trial_id) {
  util::WallTimer load_timer;
  std::uint64_t loaded_rows = 0;
  auto stored = get_trial(trial_id);
  if (!stored) throw DbError("no trial with id " + std::to_string(trial_id));

  profile::TrialData data;
  data.trial() = *stored;

  // id -> dense index maps.
  std::unordered_map<std::int64_t, std::size_t> metric_of;
  std::unordered_map<std::int64_t, std::size_t> event_of;
  std::unordered_map<std::int64_t, std::size_t> atomic_of;

  for (const auto& metric : get_metrics(trial_id)) {
    const std::size_t index = data.intern_metric(metric.name);
    data.metric(index).derived = metric.derived;
    data.metric(index).id = metric.id;
    metric_of[metric.id] = index;
  }
  for (const auto& event : get_interval_events(trial_id)) {
    const std::size_t index = data.intern_event(event.name, event.group);
    data.event(index).id = event.id;
    event_of[event.id] = index;
  }
  for (const auto& event : get_atomic_events(trial_id)) {
    const std::size_t index = data.intern_atomic_event(event.name, event.group);
    data.atomic_event(index).id = event.id;
    atomic_of[event.id] = index;
  }

  // Points decode straight from the result sets: the queries carry event
  // and metric ids, which map to the dense indexes above, and no per-row
  // event name.
  const Params by_trial{Value(trial_id)};
  auto rs = connection_->execute(
      "SELECT e.id, " + kIntervalPointColumns + kIntervalOfTrial, by_trial);
  data.reserve_interval_points(rs.row_count());
  while (rs.next()) {
    const Cells row = rs.row();
    const std::size_t thread = data.intern_thread(read_thread(row, 1));
    data.set_interval_data(event_of.at(row[0].as_int()), thread,
                           metric_of.at(row[4].as_int()),
                           read_interval_point(row, 5));
    ++loaded_rows;
  }
  rs = connection_->execute(
      "SELECT e.id, " + kAtomicPointColumns + kAtomicOfTrial, by_trial);
  while (rs.next()) {
    const Cells row = rs.row();
    const std::size_t thread = data.intern_thread(read_thread(row, 1));
    data.set_atomic_data(atomic_of.at(row[0].as_int()), thread,
                         read_atomic_point(row, 4));
    ++loaded_rows;
  }

  data.infer_dimensions();

  auto& registry = telemetry::MetricsRegistry::instance();
  static auto& loads = registry.counter("api.trial.loads");
  static auto& load_rows = registry.counter("api.trial.load_rows");
  static auto& load_micros = registry.histogram("api.trial.load_micros");
  loads.add();
  load_rows.add(loaded_rows);
  load_micros.record(static_cast<std::uint64_t>(load_timer.seconds() * 1e6));
  return data;
}

// ------------------------------------------------------ selective queries

std::vector<profile::Metric> DatabaseAPI::get_metrics(std::int64_t trial_id) {
  auto stmt = connection_->prepare(
      "SELECT id, name, derived FROM metric WHERE trial = ? ORDER BY id");
  stmt.set_int(1, trial_id);
  auto rs = stmt.execute_query();
  std::vector<profile::Metric> out;
  while (rs.next()) {
    profile::Metric metric;
    metric.id = rs.get_int(1);
    metric.name = rs.get_string(2);
    metric.derived = rs.get_int(3) != 0;
    out.push_back(std::move(metric));
  }
  return out;
}

std::vector<profile::IntervalEvent> DatabaseAPI::get_interval_events(
    std::int64_t trial_id) {
  auto stmt = connection_->prepare(
      "SELECT id, name, group_name FROM interval_event WHERE trial = ?"
      " ORDER BY id");
  stmt.set_int(1, trial_id);
  auto rs = stmt.execute_query();
  std::vector<profile::IntervalEvent> out;
  while (rs.next()) {
    profile::IntervalEvent event;
    event.id = rs.get_int(1);
    event.name = rs.get_string(2);
    event.group = rs.get_string(3);
    out.push_back(std::move(event));
  }
  return out;
}

std::vector<profile::AtomicEvent> DatabaseAPI::get_atomic_events(
    std::int64_t trial_id) {
  auto stmt = connection_->prepare(
      "SELECT id, name, group_name FROM atomic_event WHERE trial = ? ORDER BY id");
  stmt.set_int(1, trial_id);
  auto rs = stmt.execute_query();
  std::vector<profile::AtomicEvent> out;
  while (rs.next()) {
    profile::AtomicEvent event;
    event.id = rs.get_int(1);
    event.name = rs.get_string(2);
    event.group = rs.get_string(3);
    out.push_back(std::move(event));
  }
  return out;
}

std::vector<IntervalProfileRow> DatabaseAPI::get_interval_data(
    std::int64_t trial_id, const DataFilter& filter) {
  std::string sql =
      "SELECT e.id, e.name, " + kIntervalPointColumns + kIntervalOfTrial;
  Params params;
  params.push_back(Value(trial_id));
  auto add = [&](const char* clause, Value v) {
    sql += clause;
    params.push_back(std::move(v));
  };
  if (filter.event_id) add(" AND e.id = ?", Value(*filter.event_id));
  if (filter.event_group) add(" AND e.group_name = ?", Value(*filter.event_group));
  if (filter.metric_id) add(" AND p.metric = ?", Value(*filter.metric_id));
  if (filter.node) add(" AND p.node = ?", Value(std::int64_t{*filter.node}));
  if (filter.context) {
    add(" AND p.context = ?", Value(std::int64_t{*filter.context}));
  }
  if (filter.thread) add(" AND p.thread = ?", Value(std::int64_t{*filter.thread}));

  auto rs = connection_->execute(sql, params);
  std::vector<IntervalProfileRow> out;
  out.reserve(rs.row_count());
  while (rs.next()) {
    IntervalProfileRow row;
    row.event_id = rs.get_int(1);
    row.event_name = rs.get_string(2);
    row.thread = read_thread(rs.row(), 2);
    row.metric_id = rs.get_int(6);
    row.data = read_interval_point(rs.row(), 6);
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<AtomicProfileRow> DatabaseAPI::get_atomic_data(
    std::int64_t trial_id, const DataFilter& filter) {
  std::string sql =
      "SELECT e.id, e.name, " + kAtomicPointColumns + kAtomicOfTrial;
  Params params;
  params.push_back(Value(trial_id));
  if (filter.event_id) {
    sql += " AND e.id = ?";
    params.push_back(Value(*filter.event_id));
  }
  if (filter.node) {
    sql += " AND p.node = ?";
    params.push_back(Value(std::int64_t{*filter.node}));
  }
  if (filter.context) {
    sql += " AND p.context = ?";
    params.push_back(Value(std::int64_t{*filter.context}));
  }
  if (filter.thread) {
    sql += " AND p.thread = ?";
    params.push_back(Value(std::int64_t{*filter.thread}));
  }
  auto rs = connection_->execute(sql, params);
  std::vector<AtomicProfileRow> out;
  while (rs.next()) {
    AtomicProfileRow row;
    row.event_id = rs.get_int(1);
    row.event_name = rs.get_string(2);
    row.thread = read_thread(rs.row(), 2);
    row.data = read_atomic_point(rs.row(), 5);
    out.push_back(std::move(row));
  }
  return out;
}

AggregateSummary DatabaseAPI::aggregate_interval_column(std::int64_t trial_id,
                                                        std::int64_t event_id,
                                                        const std::string& column,
                                                        const DataFilter& filter) {
  static const char* kAllowed[] = {
      "inclusive",          "exclusive",          "inclusive_percentage",
      "exclusive_percentage", "inclusive_per_call", "num_calls",
      "num_subrs"};
  bool ok = false;
  for (const char* c : kAllowed) {
    if (util::iequals(c, column)) ok = true;
  }
  if (!ok) throw InvalidArgument("not an aggregatable profile column: " + column);

  std::string sql = "SELECT COUNT(p." + column + "), MIN(p." + column +
                    "), MAX(p." + column + "), AVG(p." + column + "), STDDEV(p." +
                    column +
                    ") FROM interval_event e JOIN interval_location_profile p"
                    " ON p.interval_event = e.id WHERE e.trial = ? AND e.id = ?";
  Params params;
  params.push_back(Value(trial_id));
  params.push_back(Value(event_id));
  if (filter.metric_id) {
    sql += " AND p.metric = ?";
    params.push_back(Value(*filter.metric_id));
  }
  if (filter.node) {
    sql += " AND p.node = ?";
    params.push_back(Value(std::int64_t{*filter.node}));
  }
  auto rs = connection_->execute(sql, params);
  AggregateSummary out;
  if (rs.next()) {
    out.count = static_cast<std::size_t>(rs.get_int(1));
    if (out.count > 0) {
      out.minimum = rs.get_double(2);
      out.maximum = rs.get_double(3);
      out.mean = rs.get_double(4);
      out.std_dev = rs.is_null(5) ? 0.0 : rs.get_double(5);
    }
  }
  return out;
}

// --------------------------------------------------------- derived metric

std::int64_t DatabaseAPI::save_derived_metric(std::int64_t trial_id,
                                              const profile::TrialData& data,
                                              const std::string& metric_name) {
  auto metric_index = data.find_metric(metric_name);
  if (!metric_index) {
    throw InvalidArgument("trial data has no metric '" + metric_name + "'");
  }
  // Map event names to the trial's stored event ids.
  std::unordered_map<std::string, std::int64_t> event_id_of;
  for (const auto& event : get_interval_events(trial_id)) {
    event_id_of[event.name] = event.id;
  }

  connection_->begin();
  std::int64_t metric_id = profile::kNoId;
  try {
    {
      auto stmt = connection_->prepare(
          "INSERT INTO metric (trial, name, derived) VALUES (?, ?, 1)");
      stmt.set_int(1, trial_id);
      stmt.set_string(2, metric_name);
      stmt.execute_update();
      auto rs = connection_->execute("SELECT MAX(id) FROM metric");
      rs.next();
      metric_id = rs.get_int(1);
    }
    RowBatcher rows(*connection_, "interval_location_profile",
                    kIntervalProfileColumns);
    data.for_each_interval([&](std::size_t e, std::size_t t, std::size_t m,
                               const profile::IntervalDataPoint& p) {
      if (m != *metric_index) return;
      auto it = event_id_of.find(data.events()[e].name);
      if (it == event_id_of.end()) return;  // event unknown to the trial
      add_interval_row(rows, it->second, data.threads()[t], metric_id, p);
    });
    rows.finish();
    connection_->commit();
  } catch (...) {
    rollback_if_open(*connection_);
    throw;
  }
  return metric_id;
}

// -------------------------------------------------------- analysis results

std::int64_t DatabaseAPI::save_analysis_result(std::int64_t trial_id,
                                               const std::string& name,
                                               const std::string& kind,
                                               const std::string& content) {
  // AnalysisServer workers insert results concurrently over sibling
  // connections; the transaction keeps the INSERT and the id fetch from
  // interleaving with another worker's insert (which would hand this
  // request someone else's result_id).
  ScopedTransaction txn(*connection_);
  auto stmt = connection_->prepare(
      "INSERT INTO analysis_result (trial, name, kind, content)"
      " VALUES (?, ?, ?, ?)");
  stmt.set_int(1, trial_id);
  stmt.set_string(2, name);
  stmt.set_string(3, kind);
  stmt.set_string(4, content);
  stmt.execute_update();
  auto rs = connection_->execute("SELECT MAX(id) FROM analysis_result");
  rs.next();
  const std::int64_t id = rs.get_int(1);
  txn.commit();
  return id;
}

std::vector<DatabaseAPI::AnalysisResult> DatabaseAPI::list_analysis_results(
    std::int64_t trial_id) {
  auto stmt = connection_->prepare(
      "SELECT id, name, kind, content FROM analysis_result WHERE trial = ?"
      " ORDER BY id");
  stmt.set_int(1, trial_id);
  auto rs = stmt.execute_query();
  std::vector<AnalysisResult> out;
  while (rs.next()) {
    out.push_back({rs.get_int(1), rs.get_string(2), rs.get_string(3),
                   rs.get_string(4)});
  }
  return out;
}

}  // namespace perfdmf::api
