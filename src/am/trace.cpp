#include "am/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>

namespace amm::am {

Trace capture(const AppendMemory& memory) {
  Trace trace;
  trace.node_count = memory.node_count();
  // The physical append order: the log is in arrival order, so exact
  // same-instant appends keep it and replay never sees a forward reference.
  const std::span<const Message> log = memory.log();
  trace.entries.reserve(log.size());
  for (const Message& m : log) {
    TraceEntry e;
    e.author = m.id.author;
    e.value = m.value;
    e.payload = m.payload;
    e.time = m.appended_at;
    e.refs.assign(m.refs.begin(), m.refs.end());
    trace.entries.push_back(std::move(e));
  }
  return trace;
}

AppendMemory replay(const Trace& trace) {
  AMM_EXPECTS(trace.node_count > 0);
  AppendMemory memory(trace.node_count);
  for (const TraceEntry& e : trace.entries) {
    memory.append(NodeId{e.author}, e.value, e.payload, e.refs, e.time);
  }
  return memory;
}

void write_trace(std::ostream& os, const Trace& trace) {
  os << "amm-trace 1 " << trace.node_count << "\n";
  os.precision(17);
  for (const TraceEntry& e : trace.entries) {
    os << "append " << e.author << ' ' << (e.value == Vote::kPlus ? "+1" : "-1") << ' '
       << e.payload << ' ' << e.time;
    for (const MsgId ref : e.refs) os << ' ' << ref.author << ':' << ref.seq;
    os << '\n';
  }
}

bool read_trace(std::istream& is, Trace* out) {
  AMM_EXPECTS(out != nullptr);
  Trace trace;
  std::string tag;
  int version = 0;
  if (!(is >> tag >> version >> trace.node_count)) return false;
  if (tag != "amm-trace" || version != 1 || trace.node_count == 0) return false;

  std::string line;
  std::getline(is, line);  // finish the header line
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string op, value;
    TraceEntry e;
    if (!(ls >> op >> e.author >> value >> e.payload >> e.time)) return false;
    if (op != "append") return false;
    if (value == "+1") {
      e.value = Vote::kPlus;
    } else if (value == "-1") {
      e.value = Vote::kMinus;
    } else {
      return false;
    }
    if (e.author >= trace.node_count) return false;
    std::string ref;
    while (ls >> ref) {
      const auto colon = ref.find(':');
      if (colon == std::string::npos) return false;
      try {
        const unsigned long author = std::stoul(ref.substr(0, colon));
        const unsigned long seq = std::stoul(ref.substr(colon + 1));
        e.refs.push_back(MsgId{static_cast<u32>(author), static_cast<u32>(seq)});
      } catch (...) {
        return false;
      }
    }
    trace.entries.push_back(std::move(e));
  }
  *out = std::move(trace);
  return true;
}

std::string to_string(const Trace& trace) {
  std::ostringstream oss;
  write_trace(oss, trace);
  return oss.str();
}

bool from_string(const std::string& text, Trace* out) {
  std::istringstream iss(text);
  return read_trace(iss, out);
}

}  // namespace amm::am
