#include "panda/panda.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "language/parser.hpp"

namespace greenps {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& why) {
  throw PandaError("panda: line " + std::to_string(line) + ": " + why);
}

// Split one line into whitespace-separated tokens, except that the value of
// a key=... pair runs to the end of the line once the key is `filter`
// (filters contain spaces only inside quotes, but commas are common).
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok.rfind("filter=", 0) == 0) {
      std::string rest;
      std::getline(is, rest);
      tokens.push_back(tok + rest);
      break;
    }
    tokens.push_back(tok);
  }
  return tokens;
}

struct KeyValues {
  std::unordered_map<std::string, std::string> kv;
  [[nodiscard]] const std::string* find(const std::string& key) const {
    const auto it = kv.find(key);
    return it == kv.end() ? nullptr : &it->second;
  }
};

KeyValues parse_kv(const std::vector<std::string>& tokens, std::size_t from,
                   std::size_t line) {
  KeyValues out;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) fail(line, "expected key=value, got '" + tokens[i] + "'");
    out.kv[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return out;
}

double parse_number(const std::string& s, std::size_t line, const std::string& what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) fail(line, "bad " + what + " '" + s + "'");
    return v;
  } catch (const std::invalid_argument&) {
    fail(line, "bad " + what + " '" + s + "'");
  } catch (const std::out_of_range&) {
    fail(line, what + " out of range '" + s + "'");
  }
}

}  // namespace

std::string PandaTopology::first_ordering_violation() const {
  double last_broker_start = 0;
  for (const auto& name : broker_names) {
    const auto it = start_times.find(name);
    if (it != start_times.end()) last_broker_start = std::max(last_broker_start, it->second);
  }
  for (const auto& [name, start] : start_times) {
    const bool is_broker =
        std::find(broker_names.begin(), broker_names.end(), name) != broker_names.end();
    if (!is_broker && start < last_broker_start) return name;
  }
  return {};
}

PandaTopology parse_panda(std::string_view text) {
  PandaTopology topo;
  std::unordered_map<std::string, BrokerId> brokers;
  std::unordered_map<std::string, bool> names;  // all entity names
  std::uint64_t next_broker = 0;
  std::uint64_t next_client = 0;
  std::uint64_t next_sub = 0;
  std::uint64_t next_adv = 0;

  std::istringstream is{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& kind = tokens[0];

    auto declare = [&](const std::string& name) {
      if (!names.emplace(name, true).second) fail(line_no, "duplicate name '" + name + "'");
    };
    auto broker_ref = [&](const std::string& name) -> BrokerId {
      const auto it = brokers.find(name);
      if (it == brokers.end()) fail(line_no, "unknown broker '" + name + "'");
      return it->second;
    };
    auto record_start = [&](const std::string& name, const KeyValues& kv) {
      if (const auto* s = kv.find("start")) {
        topo.start_times[name] = parse_number(*s, line_no, "start time");
      }
    };

    if (kind == "broker") {
      if (tokens.size() < 2) fail(line_no, "broker needs a name");
      const std::string& name = tokens[1];
      declare(name);
      const KeyValues kv = parse_kv(tokens, 2, line_no);
      BrokerCapacity cap;
      if (const auto* v = kv.find("bw")) {
        cap.out_bw_kb_s = parse_number(*v, line_no, "bandwidth");
      }
      if (const auto* v = kv.find("delay-base")) {
        cap.delay.base_s = parse_number(*v, line_no, "delay-base");
      }
      if (const auto* v = kv.find("delay-per-sub")) {
        cap.delay.per_sub_s = parse_number(*v, line_no, "delay-per-sub");
      }
      const BrokerId id{next_broker++};
      brokers.emplace(name, id);
      topo.broker_names.push_back(name);
      topo.deployment.topology.add_broker(id);
      topo.deployment.capacities.emplace(id, cap);
      record_start(name, kv);
    } else if (kind == "link") {
      if (tokens.size() != 3) fail(line_no, "link needs exactly two broker names");
      const BrokerId a = broker_ref(tokens[1]);
      const BrokerId b = broker_ref(tokens[2]);
      if (a == b) fail(line_no, "self-link on '" + tokens[1] + "'");
      topo.deployment.topology.add_link(a, b);
    } else if (kind == "publisher") {
      if (tokens.size() < 2) fail(line_no, "publisher needs a name");
      declare(tokens[1]);
      const KeyValues kv = parse_kv(tokens, 2, line_no);
      const auto* broker = kv.find("broker");
      const auto* symbol = kv.find("symbol");
      if (broker == nullptr || symbol == nullptr) {
        fail(line_no, "publisher needs broker= and symbol=");
      }
      PublisherSpec p;
      p.client = ClientId{next_client++};
      p.adv = AdvId{next_adv++};
      p.symbol = *symbol;
      p.home = broker_ref(*broker);
      if (const auto* r = kv.find("rate")) {
        p.rate_msg_s = parse_number(*r, line_no, "rate");
      }
      Filter f;
      f.add({"class", Op::kEq, Value(std::string("STOCK"))});
      f.add({"symbol", Op::kEq, Value(*symbol)});
      p.adv_filter = std::move(f);
      topo.deployment.publishers.push_back(std::move(p));
      record_start(tokens[1], kv);
    } else if (kind == "subscriber") {
      if (tokens.size() < 2) fail(line_no, "subscriber needs a name");
      declare(tokens[1]);
      const KeyValues kv = parse_kv(tokens, 2, line_no);
      const auto* broker = kv.find("broker");
      const auto* filter = kv.find("filter");
      if (broker == nullptr || filter == nullptr) {
        fail(line_no, "subscriber needs broker= and filter=");
      }
      SubscriberSpec s;
      s.client = ClientId{next_client++};
      s.sub = SubId{next_sub++};
      s.home = broker_ref(*broker);
      try {
        s.filter = parse_filter(*filter);
      } catch (const ParseError& e) {
        fail(line_no, e.what());
      }
      topo.deployment.subscribers.push_back(std::move(s));
      record_start(tokens[1], kv);
    } else {
      fail(line_no, "unknown directive '" + kind + "'");
    }
  }
  return topo;
}

std::string write_panda(const Deployment& deployment) {
  std::ostringstream os;
  os << "# greenps topology file\n";
  const auto brokers = deployment.topology.brokers();
  auto bname = [](BrokerId b) {
    std::string name = "B";
    name += std::to_string(b.value());
    return name;
  };
  for (const BrokerId b : brokers) {
    os << "broker " << bname(b);
    const auto it = deployment.capacities.find(b);
    if (it != deployment.capacities.end()) {
      os << " bw=" << it->second.out_bw_kb_s << " delay-base=" << it->second.delay.base_s
         << " delay-per-sub=" << it->second.delay.per_sub_s;
    }
    os << "\n";
  }
  for (const BrokerId a : brokers) {
    for (const BrokerId b : deployment.topology.neighbors(a)) {
      if (a < b) os << "link " << bname(a) << " " << bname(b) << "\n";
    }
  }
  for (const auto& p : deployment.publishers) {
    os << "publisher P" << p.client.value() << " broker=" << bname(p.home)
       << " symbol=" << p.symbol << " rate=" << p.rate_msg_s << "\n";
  }
  for (const auto& s : deployment.subscribers) {
    os << "subscriber C" << s.client.value() << " broker=" << bname(s.home)
       << " filter=" << s.filter.to_string() << "\n";
  }
  return os.str();
}

}  // namespace greenps
