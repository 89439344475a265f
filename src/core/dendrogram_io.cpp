#include "core/dendrogram_io.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/snapshot_io.hpp"
#include "util/strings.hpp"

namespace lc::core {
namespace {

struct Node {
  bool leaf = true;
  EdgeIdx leaf_index = 0;
  double height = 1.0;  ///< similarity at which this node formed (leaves: 1)
  std::size_t left = 0;
  std::size_t right = 0;
};

void render(const std::vector<Node>& nodes, std::size_t node, double parent_height,
            const LeafNamer& namer, std::string& out) {
  const Node& n = nodes[node];
  if (n.leaf) {
    if (namer) {
      out.append(namer(n.leaf_index));
    } else {
      out.append("e").append(std::to_string(n.leaf_index));
    }
  } else {
    out.push_back('(');
    render(nodes, n.left, n.height, namer, out);
    out.push_back(',');
    render(nodes, n.right, n.height, namer, out);
    out.push_back(')');
  }
  const double length = n.height - parent_height;
  out += strprintf(":%.6g", length < 0 ? 0.0 : length);
}

constexpr std::string_view kLeavesKey = "# leaves=";
constexpr std::string_view kEventsKey = " events=";
constexpr std::string_view kChecksumKey = "# fnv=";

/// Reads a decimal u64 at `pos`, advancing it past the digits. Overflow and
/// digit-free input report false with `pos` still on the offending byte.
bool parse_u64(std::string_view text, std::size_t& pos, std::uint64_t& out) {
  const std::size_t start = pos;
  std::uint64_t value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    const std::uint64_t digit = static_cast<std::uint64_t>(text[pos] - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      pos = start;
      return false;
    }
    value = value * 10 + digit;
    ++pos;
  }
  if (pos == start) return false;
  out = value;
  return true;
}

/// Reads a strtod-compatible token ending at space/newline. The bounded copy
/// keeps strtod off unterminated memory; 63 chars is far beyond any value
/// to_merge_list's %.9g can emit.
bool parse_double(std::string_view text, std::size_t& pos, double& out) {
  std::size_t end = pos;
  while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
  const std::size_t length = end - pos;
  if (length == 0 || length > 63) return false;
  char buffer[64];
  std::memcpy(buffer, text.data() + pos, length);
  buffer[length] = '\0';
  char* parse_end = nullptr;
  const double value = std::strtod(buffer, &parse_end);
  if (parse_end != buffer + length) return false;
  if (!std::isfinite(value)) return false;
  out = value;
  pos = end;
  return true;
}

bool parse_hex16(std::string_view token, std::uint64_t& out) {
  if (token.size() != 16) return false;
  std::uint64_t value = 0;
  for (const char c : token) {
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | nibble;
  }
  out = value;
  return true;
}

}  // namespace

std::string to_newick(const Dendrogram& dendrogram, const LeafNamer& namer) {
  const std::size_t leaves = dendrogram.leaf_count();
  if (leaves == 0) return ";";

  std::vector<Node> nodes;
  nodes.reserve(2 * leaves);
  // active[i]: current node of the cluster canonically labeled i.
  std::unordered_map<EdgeIdx, std::size_t> active;
  for (EdgeIdx i = 0; i < leaves; ++i) {
    nodes.push_back(Node{true, i, 1.0, 0, 0});
    active[i] = i;
  }
  for (const MergeEvent& event : dendrogram.events()) {
    const std::size_t left = active.at(event.into);
    const std::size_t right = active.at(event.from);
    Node internal;
    internal.leaf = false;
    internal.height = event.similarity;
    internal.left = left;
    internal.right = right;
    nodes.push_back(internal);
    active[event.into] = nodes.size() - 1;
    active.erase(event.from);
  }

  // Remaining actives are the forest roots; multiple roots join under a
  // height-0 super-root so the output is always a single tree.
  std::vector<std::size_t> roots;
  roots.reserve(active.size());
  for (EdgeIdx i = 0; i < leaves; ++i) {
    const auto it = active.find(i);
    if (it != active.end()) roots.push_back(it->second);
  }
  std::size_t root = roots.front();
  for (std::size_t r = 1; r < roots.size(); ++r) {
    Node super;
    super.leaf = false;
    super.height = 0.0;
    super.left = root;
    super.right = roots[r];
    nodes.push_back(super);
    root = nodes.size() - 1;
  }

  std::string out;
  render(nodes, root, nodes[root].height, namer, out);
  out.push_back(';');
  return out;
}

std::string to_merge_list(const Dendrogram& dendrogram) {
  std::string out;
  out += strprintf("# leaves=%zu events=%zu\n", dendrogram.leaf_count(),
                   dendrogram.events().size());
  const std::size_t body_begin = out.size();
  for (const MergeEvent& event : dendrogram.events()) {
    out += strprintf("%u %u %u %.9g\n", event.level, event.from, event.into,
                     event.similarity);
  }
  const std::uint64_t checksum =
      snapshot::fnv1a64(out.data() + body_begin, out.size() - body_begin);
  out += strprintf("# fnv=%016llx\n", static_cast<unsigned long long>(checksum));
  return out;
}

StatusOr<Dendrogram> parse_merge_list(std::string_view text) {
  auto fail = [](const char* what, std::size_t offset) {
    return Status::invalid_argument(
        strprintf("merge list: %s at byte %zu", what, offset));
  };

  std::size_t pos = 0;
  if (text.substr(0, kLeavesKey.size()) != kLeavesKey) {
    return fail("missing \"# leaves=\" header", 0);
  }
  pos = kLeavesKey.size();
  std::uint64_t leaves = 0;
  if (!parse_u64(text, pos, leaves)) return fail("unreadable leaf count", pos);
  // Cluster ids are EdgeIdx (u32); a larger claim cannot come from
  // to_merge_list and would only size downstream replay buffers.
  if (leaves > std::numeric_limits<EdgeIdx>::max()) {
    return fail("implausible leaf count", kLeavesKey.size());
  }
  if (text.substr(pos, kEventsKey.size()) != kEventsKey) {
    return fail("missing \" events=\" in header", pos);
  }
  pos += kEventsKey.size();
  const std::size_t events_offset = pos;
  std::uint64_t events = 0;
  if (!parse_u64(text, pos, events)) return fail("unreadable event count", pos);
  if (events >= leaves && events != 0) {
    // leaves - 1 merges empty the forest; more cannot replay.
    return fail("more events than leaves allow", events_offset);
  }
  if (pos >= text.size() || text[pos] != '\n') {
    return fail("header not terminated by newline", pos);
  }
  ++pos;

  Dendrogram dendrogram(static_cast<std::size_t>(leaves));
  std::uint64_t parsed = 0;
  std::uint32_t last_level = 0;
  // Labels merged away by an earlier event: they can neither merge again nor
  // absorb anything — either would replay into a nonexistent cluster.
  std::unordered_set<EdgeIdx> retired;
  const std::size_t body_begin = pos;
  std::size_t body_end = pos;
  bool have_checksum = false;
  std::uint64_t stored_checksum = 0;

  while (pos < text.size()) {
    const std::size_t line_start = pos;
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      return fail("truncated line (missing final newline)", line_start);
    }
    const std::string_view line = text.substr(line_start, eol - line_start);

    if (!line.empty() && line.front() == '#') {
      // Only the checksum footer may follow the events, and nothing follows it.
      if (line.substr(0, kChecksumKey.size()) != kChecksumKey) {
        return fail("unrecognized comment line", line_start);
      }
      if (!parse_hex16(line.substr(kChecksumKey.size()), stored_checksum)) {
        return fail("checksum is not 16 lowercase hex digits",
                    line_start + kChecksumKey.size());
      }
      have_checksum = true;
      body_end = line_start;
      pos = eol + 1;
      if (pos != text.size()) return fail("content after checksum footer", pos);
      break;
    }

    std::size_t cursor = line_start;
    std::uint64_t level = 0;
    std::uint64_t from = 0;
    std::uint64_t into = 0;
    double similarity = 0.0;
    auto expect_space = [&text, &cursor]() {
      if (cursor < text.size() && text[cursor] == ' ') {
        ++cursor;
        return true;
      }
      return false;
    };
    if (!parse_u64(text, cursor, level) ||
        level > std::numeric_limits<std::uint32_t>::max()) {
      return fail("unreadable level", cursor);
    }
    if (!expect_space()) return fail("expected space after level", cursor);
    if (!parse_u64(text, cursor, from)) return fail("unreadable from-label", cursor);
    if (!expect_space()) return fail("expected space after from-label", cursor);
    if (!parse_u64(text, cursor, into)) return fail("unreadable into-label", cursor);
    if (!expect_space()) return fail("expected space after into-label", cursor);
    if (!parse_double(text, cursor, similarity)) {
      return fail("unreadable similarity", cursor);
    }
    if (cursor != eol) return fail("trailing bytes on event line", cursor);

    if (parsed == events) return fail("more event lines than the header claims", line_start);
    if (from <= into || from >= leaves) {
      return fail("event labels violate dendrogram invariants", line_start);
    }
    if (static_cast<std::uint32_t>(level) < last_level) {
      return fail("levels must be nondecreasing", line_start);
    }
    if (!retired.insert(static_cast<EdgeIdx>(from)).second) {
      return fail("label merged away twice", line_start);
    }
    if (retired.contains(static_cast<EdgeIdx>(into))) {
      return fail("merge into a label already merged away", line_start);
    }
    last_level = static_cast<std::uint32_t>(level);
    dendrogram.add_event(static_cast<std::uint32_t>(level),
                         static_cast<EdgeIdx>(from), static_cast<EdgeIdx>(into),
                         similarity);
    ++parsed;
    pos = eol + 1;
    body_end = pos;
  }

  if (parsed != events) {
    return fail("event count does not match the header", body_end);
  }
  if (have_checksum) {
    const std::uint64_t actual =
        snapshot::fnv1a64(text.data() + body_begin, body_end - body_begin);
    if (actual != stored_checksum) return fail("checksum mismatch", body_end);
  }
  return dendrogram;
}

std::optional<Dendrogram> from_merge_list(const std::string& text, std::string* error) {
  StatusOr<Dendrogram> parsed = parse_merge_list(text);
  if (!parsed.ok()) {
    if (error != nullptr) *error = parsed.status().message();
    return std::nullopt;
  }
  return std::move(parsed).value();
}

}  // namespace lc::core
