#include "workload/scenario_io.hpp"

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "support/checked.hpp"
#include "support/contract.hpp"
#include "support/jsonl.hpp"

namespace ahg::workload {

namespace {

constexpr const char* kHeader = "adhoc-grid-scenario v1";

[[noreturn]] void parse_fail(std::size_t line, const std::string& message) {
  throw PreconditionError("scenario parse error at line " + std::to_string(line) +
                          ": " + message);
}

/// The count of a `<keyword> <count>` header line: an integer in [1, max]
/// (read through obs::checked_int, so a sign, a fraction or a value past
/// the cap is refused instead of wrapping into a size).
std::size_t parse_count(std::size_t line_no, const std::string& line,
                        const std::string& keyword, std::size_t max) {
  std::istringstream ss(line);
  std::string kw;
  std::string token;
  if (!(ss >> kw >> token) || kw != keyword) {
    parse_fail(line_no, "expected '" + keyword + " <count>'");
  }
  try {
    const obs::JsonValue value = obs::parse_json(token);
    return static_cast<std::size_t>(
        obs::checked_int(&value, keyword, 1, static_cast<std::int64_t>(max)));
  } catch (const PreconditionError& e) {
    parse_fail(line_no, e.what());
  }
}

}  // namespace

void write_scenario(std::ostream& os, const Scenario& scenario) {
  scenario.validate();
  os << kHeader << '\n';
  os << std::setprecision(17);

  os << "machines " << scenario.num_machines() << '\n';
  for (const auto& m : scenario.grid.machines()) {
    os << "machine " << sim::to_string(m.cls) << ' ' << m.battery_capacity << ' '
       << m.compute_power << ' ' << m.transmit_power << ' ' << m.bandwidth_bps
       << '\n';
  }

  os << "tasks " << scenario.num_tasks() << '\n';
  os << "tau " << scenario.tau << '\n';
  os << "versions " << scenario.versions.secondary_time_factor << ' '
     << scenario.versions.secondary_data_factor << '\n';

  for (std::size_t i = 0; i < scenario.num_tasks(); ++i) {
    for (std::size_t j = 0; j < scenario.num_machines(); ++j) {
      os << "etc " << i << ' ' << j << ' '
         << scenario.etc.seconds(static_cast<TaskId>(i), static_cast<MachineId>(j))
         << '\n';
    }
  }
  for (std::size_t i = 0; i < scenario.num_tasks(); ++i) {
    const auto parent = static_cast<TaskId>(i);
    for (const TaskId child : scenario.dag.children(parent)) {
      os << "edge " << parent << ' ' << child << ' '
         << scenario.data.bits(parent, child) << '\n';
    }
  }
  if (!scenario.releases.empty()) {
    for (std::size_t i = 0; i < scenario.releases.size(); ++i) {
      if (scenario.releases[i] > 0) {
        os << "release " << i << ' ' << scenario.releases[i] << '\n';
      }
    }
  }
  for (const auto& outage : scenario.link_outages) {
    os << "outage " << outage.machine << ' ' << outage.start << ' '
       << outage.duration << '\n';
  }
}

Scenario read_scenario(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;

  auto next_line = [&](bool required) -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      // Strip comments and skip blank lines.
      if (const auto hash = line.find('#'); hash != std::string::npos) {
        line.erase(hash);
      }
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      return true;
    }
    if (required) parse_fail(line_no, "unexpected end of file");
    return false;
  };

  next_line(true);
  if (line != kHeader) parse_fail(line_no, "missing header '" + std::string(kHeader) + "'");

  // --- machines ---------------------------------------------------------------
  next_line(true);
  const std::size_t num_machines =
      parse_count(line_no, line, "machines", kMaxScenarioMachines);
  std::vector<sim::MachineSpec> machines;
  for (std::size_t j = 0; j < num_machines; ++j) {
    next_line(true);
    std::istringstream ss(line);
    std::string kw;
    std::string cls;
    sim::MachineSpec spec;
    if (!(ss >> kw >> cls >> spec.battery_capacity >> spec.compute_power >>
          spec.transmit_power >> spec.bandwidth_bps) ||
        kw != "machine") {
      parse_fail(line_no, "expected 'machine <class> <B> <E> <C> <BW>'");
    }
    if (cls == "fast") spec.cls = sim::MachineClass::Fast;
    else if (cls == "slow") spec.cls = sim::MachineClass::Slow;
    else parse_fail(line_no, "machine class must be fast|slow, got '" + cls + "'");
    if (spec.battery_capacity < 0 || spec.compute_power < 0 || spec.transmit_power < 0 ||
        spec.bandwidth_bps <= 0) {
      parse_fail(line_no, "machine parameters out of range");
    }
    machines.push_back(spec);
  }

  // --- sizes / constraints -----------------------------------------------------
  next_line(true);
  const std::size_t num_tasks = parse_count(line_no, line, "tasks", kMaxScenarioTasks);
  if (checked_mul(num_tasks, num_machines, "scenario ETC table") >
      kMaxScenarioEtcEntries) {
    parse_fail(line_no, std::to_string(num_tasks) + " tasks x " +
                            std::to_string(num_machines) + " machines exceeds " +
                            std::to_string(kMaxScenarioEtcEntries) + " ETC entries");
  }
  next_line(true);
  Cycles tau = 0;
  {
    std::istringstream ss(line);
    std::string kw;
    if (!(ss >> kw >> tau) || kw != "tau" || tau <= 0) {
      parse_fail(line_no, "expected 'tau <cycles>'");
    }
  }
  next_line(true);
  VersionModel versions;
  {
    std::istringstream ss(line);
    std::string kw;
    if (!(ss >> kw >> versions.secondary_time_factor >> versions.secondary_data_factor) ||
        kw != "versions") {
      parse_fail(line_no, "expected 'versions <time_factor> <data_factor>'");
    }
  }

  // --- etc entries and edges ----------------------------------------------------
  EtcMatrix etc(num_tasks, num_machines);
  std::vector<bool> seen(num_tasks * num_machines, false);
  Dag dag(num_tasks);
  DataSizes data;
  std::vector<Cycles> releases;
  std::vector<Scenario::LinkOutage> outages;

  while (next_line(false)) {
    std::istringstream ss(line);
    std::string kw;
    ss >> kw;
    if (kw == "etc") {
      long long task = -1;
      long long machine = -1;
      double secs = 0.0;
      if (!(ss >> task >> machine >> secs)) parse_fail(line_no, "malformed etc line");
      if (task < 0 || static_cast<std::size_t>(task) >= num_tasks ||
          machine < 0 || static_cast<std::size_t>(machine) >= num_machines) {
        parse_fail(line_no, "etc indices out of range");
      }
      if (secs <= 0.0) parse_fail(line_no, "etc seconds must be positive");
      const std::size_t idx =
          static_cast<std::size_t>(task) * num_machines + static_cast<std::size_t>(machine);
      if (seen[idx]) parse_fail(line_no, "duplicate etc entry");
      seen[idx] = true;
      etc.set_seconds(static_cast<TaskId>(task), static_cast<MachineId>(machine), secs);
    } else if (kw == "edge") {
      long long parent = -1;
      long long child = -1;
      double bits = 0.0;
      if (!(ss >> parent >> child >> bits)) parse_fail(line_no, "malformed edge line");
      if (parent < 0 || static_cast<std::size_t>(parent) >= num_tasks ||
          child < 0 || static_cast<std::size_t>(child) >= num_tasks) {
        parse_fail(line_no, "edge indices out of range");
      }
      if (bits < 0.0) parse_fail(line_no, "edge bits must be non-negative");
      if (parent == child || dag.has_edge(static_cast<TaskId>(parent),
                                          static_cast<TaskId>(child))) {
        parse_fail(line_no, "invalid or duplicate edge");
      }
      dag.add_edge(static_cast<TaskId>(parent), static_cast<TaskId>(child));
      data.set_bits(static_cast<TaskId>(parent), static_cast<TaskId>(child), bits);
    } else if (kw == "release") {
      long long task = -1;
      Cycles when = 0;
      if (!(ss >> task >> when)) parse_fail(line_no, "malformed release line");
      if (task < 0 || static_cast<std::size_t>(task) >= num_tasks || when < 0) {
        parse_fail(line_no, "release out of range");
      }
      if (releases.empty()) releases.assign(num_tasks, 0);
      releases[static_cast<std::size_t>(task)] = when;
    } else if (kw == "outage") {
      Scenario::LinkOutage outage;
      long long machine = -1;
      if (!(ss >> machine >> outage.start >> outage.duration)) {
        parse_fail(line_no, "malformed outage line");
      }
      if (machine < 0 || static_cast<std::size_t>(machine) >= num_machines ||
          outage.start < 0 || outage.duration <= 0) {
        parse_fail(line_no, "outage out of range");
      }
      outage.machine = static_cast<MachineId>(machine);
      outages.push_back(outage);
    } else {
      parse_fail(line_no, "unknown keyword '" + kw + "'");
    }
  }

  for (std::size_t idx = 0; idx < seen.size(); ++idx) {
    if (!seen[idx]) {
      parse_fail(line_no, "missing etc entry for task " +
                              std::to_string(idx / num_machines) + ", machine " +
                              std::to_string(idx % num_machines));
    }
  }
  if (!dag.is_acyclic()) parse_fail(line_no, "edge set contains a cycle");

  Scenario scenario{sim::GridConfig(std::move(machines)), std::move(dag),
                    std::move(etc), std::move(data), versions, tau,
                    std::move(releases), std::move(outages)};
  scenario.validate();
  return scenario;
}

void save_scenario(const std::string& path, const Scenario& scenario) {
  std::ofstream file(path);
  AHG_EXPECTS_MSG(file.good(), "cannot open '" + path + "' for writing");
  write_scenario(file, scenario);
  AHG_ENSURES_MSG(file.good(), "write to '" + path + "' failed");
}

Scenario load_scenario(const std::string& path) {
  std::ifstream file(path);
  AHG_EXPECTS_MSG(file.good(), "cannot open '" + path + "' for reading");
  return read_scenario(file);
}

}  // namespace ahg::workload
