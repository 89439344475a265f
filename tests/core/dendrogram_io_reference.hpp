// The printf-based merge-list formatter that core/dendrogram_io.cpp shipped
// before its to_chars formatter, kept verbatim as the test oracle: every
// byte of to_merge_list's output, footer included, must equal this.
#pragma once

#include <cstdint>
#include <string>

#include "core/dendrogram.hpp"
#include "util/fnv.hpp"
#include "util/strings.hpp"

namespace lc::core::testing_reference {

inline std::string reference_to_merge_list(const Dendrogram& dendrogram) {
  std::string out;
  out += strprintf("# leaves=%zu events=%zu\n", dendrogram.leaf_count(),
                   dendrogram.events().size());
  const std::size_t body_begin = out.size();
  for (const MergeEvent& event : dendrogram.events()) {
    out += strprintf("%u %u %u %.9g\n", event.level, event.from, event.into,
                     event.similarity);
  }
  const std::uint64_t checksum =
      fnv1a64(out.data() + body_begin, out.size() - body_begin);
  out += strprintf("# fnv=%016llx\n", static_cast<unsigned long long>(checksum));
  return out;
}

}  // namespace lc::core::testing_reference
