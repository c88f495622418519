#include "common/stats.h"

#include <sstream>

namespace uvd {

const char* TickerName(Ticker t) {
  switch (t) {
    case Ticker::kPageReads:
      return "page.reads";
    case Ticker::kPageWrites:
      return "page.writes";
    case Ticker::kBufferPoolHits:
      return "bufferpool.hits";
    case Ticker::kBufferPoolMisses:
      return "bufferpool.misses";
    case Ticker::kBufferPoolEvictions:
      return "bufferpool.evictions";
    case Ticker::kRtreeNodeVisits:
      return "rtree.node.visits";
    case Ticker::kRtreeLeafReads:
      return "rtree.leaf.reads";
    case Ticker::kUvIndexNodeVisits:
      return "uvindex.node.visits";
    case Ticker::kUvIndexLeafReads:
      return "uvindex.leaf.reads";
    case Ticker::kHyperbolaTests:
      return "geom.hyperbola.tests";
    case Ticker::kEnvelopeInsertions:
      return "geom.envelope.insertions";
    case Ticker::kOverlapChecks:
      return "uvindex.overlap.checks";
    case Ticker::kFourPointTests:
      return "uvindex.fourpoint.tests";
    case Ticker::kQualificationIntegrations:
      return "pnn.qualification.integrations";
    case Ticker::kQueryCacheHits:
      return "query.cache.hits";
    case Ticker::kQueryCacheMisses:
      return "query.cache.misses";
    case Ticker::kQueryCachePromotions:
      return "query.cache.promotions";
    case Ticker::kQueryCacheDemotions:
      return "query.cache.demotions";
    case Ticker::kLeafMemoHits:
      return "rtree.leafmemo.hits";
    case Ticker::kLeafMemoMisses:
      return "rtree.leafmemo.misses";
    case Ticker::kNumTickers:
      break;
  }
  return "unknown";
}

std::string Stats::ToString(bool include_zeros) const {
  std::ostringstream out;
  for (uint32_t i = 0; i < static_cast<uint32_t>(Ticker::kNumTickers); ++i) {
    const uint64_t value = Get(static_cast<Ticker>(i));
    if (value == 0 && !include_zeros) continue;
    out << TickerName(static_cast<Ticker>(i)) << " = " << value << "\n";
  }
  return out.str();
}

std::string Stats::ToJson(bool include_zeros) const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (uint32_t i = 0; i < static_cast<uint32_t>(Ticker::kNumTickers); ++i) {
    const uint64_t value = Get(static_cast<Ticker>(i));
    if (value == 0 && !include_zeros) continue;
    out << (first ? "" : ", ") << "\"" << TickerName(static_cast<Ticker>(i))
        << "\": " << value;
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace uvd
