#include "src/index/rr_sketch_pool.h"

#include <algorithm>
#include <bit>

#include "src/util/check.h"

namespace pitex {

RrSketchPool::RrSketchPool(uint64_t num_vertices, uint64_t max_out_degree) {
  SetNetwork(num_vertices, max_out_degree);
}

RrSketchPool::RrSketchPool(const Graph& topology)
    : RrSketchPool(topology.num_vertices(), topology.MaxOutDegree()) {
  topology_ = topology;
}

RrSketchPool RrSketchPool::EmptyLike() const {
  RrSketchPool pool(num_vertices_, max_out_degree_);
  pool.topology_ = topology_;
  return pool;
}

void RrSketchPool::SetNetwork(uint64_t num_vertices,
                              uint64_t max_out_degree) {
  num_vertices_ = std::min<uint64_t>(num_vertices, kExplicit);
  max_out_degree_ = std::min<uint64_t>(max_out_degree, uint64_t{1} << 32);
  vertex_bits_ = IdBits(num_vertices_);
  rank_bits_ = IdBits(max_out_degree_);
}

void RrSketchPool::Append(const RRView& sketch) {
  const size_t n = sketch.vertices.size();
  const size_t m = sketch.edges.size();
  const bool in_tree = sketch.InTree();
  AppendBlock(sketch.root_local, sketch.vertices, m, in_tree,
              [&](BlockWriter& out) {
    sketch.VisitCsr([&](const auto& in) {
      PITEX_DCHECK(in.offset(n) == m);
      if (!in_tree) {
        for (size_t j = 0; j <= n; ++j) out.PutOffset(in.offset(j));
      }
      for (size_t k = 0; k < m; ++k) out.PutHead(in.head(k));
    });
    for (size_t k = 0; k < m; ++k) out.PutEdge(sketch.edges[k]);
  });
}

void RrSketchPool::Clear() {
  slots_.Clear();
  body_.clear();
  containing_starts_.Clear();
  containing_.clear();
  max_sketch_vertices_ = 0;
  containing_k_ = 0;
}

void RrSketchPool::WidenDirectory() {
  slots_.Widen([](uint32_t word) {
    return (word & kNarrowExplicit) != 0
               ? kExplicit | (word & ~kNarrowExplicit)
               : word;
  });
}

uint64_t RrSketchPool::BodyStart(size_t i) const {
  for (; i < num_sketches(); ++i) {
    const uint32_t slot = slots_.word(i);
    const uint32_t flag = slots_.top_bit();
    if ((slot & flag) != 0) return slots_.base(i) + (slot & ~flag);
  }
  return BodyEnd();
}

RrSketchPool RrSketchPool::FromRuns(std::span<const Segment> segments,
                                    uint64_t num_sketches,
                                    const RrSketchPool& network) {
  RrSketchPool out = network.EmptyLike();
  // Each segment's slice of its run, put in sample order.
  struct Slice : Segment {
    uint64_t body_begin, body_end;
    uint64_t out_begin;  // where the slice's blocks go in the pool
  };
  std::vector<Slice> slices;
  slices.reserve(segments.size());
  for (const Segment& seg : segments) {
    PITEX_CHECK_MSG(seg.run != nullptr && uint64_t{seg.first} + seg.count <=
                                              seg.run->num_sketches(),
                    "run segment out of range");
    if (seg.count == 0) continue;
    const RrSketchPool& run = *seg.run;
    // The blocks are copied as they are, so each run's fields take the
    // pool's widths, and its ranks index the pool's topology.
    PITEX_CHECK_MSG(run.num_vertices_ == out.num_vertices_ &&
                        run.max_out_degree_ == out.max_out_degree_ &&
                        run.topology_.SharesStorage(out.topology_),
                    "run samples a different network");
    slices.push_back({seg, run.BodyStart(seg.first),
                      run.BodyStart(seg.first + seg.count), 0});
  }
  std::ranges::sort(slices, {}, &Slice::sample);
  uint64_t covered = 0;
  uint64_t body = 0;
  for (Slice& s : slices) {
    PITEX_CHECK_MSG(s.sample == covered,
                    "runs must cover every sample exactly once");
    covered += s.count;
    s.out_begin = body;
    body += s.body_end - s.body_begin;
  }
  PITEX_CHECK_MSG(covered == num_sketches,
                  "runs must cover every sample exactly once");
  // The totals only grow, so checking them once covers every entry (the
  // runs checked each vertex id as they took it).
  PITEX_CHECK_MSG(num_sketches < UINT32_MAX && body <= kExplicit,
                  "sketch pool exceeds its directory words");

  // Exact-size arrays, filled by appends (no zero-fill pass but the
  // padding's). A group's base is where the next block starts when the
  // walk reaches the group's first sketch, so it waits for the next
  // block's start (or the end of the body); a block's own group is
  // resolved by the time its word is appended.
  out.slots_.Reserve(num_sketches, 2);
  out.body_.reserve(PaddedBytes(8 * body));
  std::vector<uint32_t>& bases = out.slots_.bases;
  size_t resolved = 0;  // bases[resolved ..] wait for a block's start
  for (const Slice& s : slices) {
    out.body_.insert(out.body_.end(), s.run->body_.begin() + s.body_begin,
                     s.run->body_.begin() + s.body_end);
    s.run->ForEachSlot(s.first, s.first + s.count, [&](bool block,
                                                       uint32_t value) {
      if (out.num_sketches() % GroupWords::kGroup == 0) bases.push_back(0);
      if (block) {
        const uint64_t start = value - s.body_begin + s.out_begin;
        for (; resolved < bases.size(); ++resolved) {
          bases[resolved] = static_cast<uint32_t>(start);
        }
        value = static_cast<uint32_t>(start - bases.back());
      }
      out.PushSlot(value, block);
    });
  }
  for (; resolved < bases.size(); ++resolved) {
    bases[resolved] = static_cast<uint32_t>(body);
  }
  if (body != 0) out.body_.resize(body + kBitPadding);
  out.BuildContaining(out.num_vertices_);
  return out;
}

bool RrSketchPool::FinishLoaded(const Graph& topology) {
  SetNetwork(topology.num_vertices(), topology.MaxOutDegree());
  topology_ = topology;
  const size_t s = num_sketches();
  // The blocks, then their padding (none without a block).
  if (!body_.empty() && body_.size() <= kBitPadding) return false;
  const uint64_t end = BodyEnd();
  if (s >= UINT32_MAX || end > kExplicit) return false;
  const uint32_t flag = slots_.top_bit();
  slots_.bases.reserve((s + GroupWords::kGroup - 1) / GroupWords::kGroup);
  uint64_t body = 0;      // where the next block must start
  uint64_t vertices = 0;  // every sketch's, which must fit 32 bits
  uint64_t max_singleton = 0;
  uint64_t max_offset = 0;
  std::vector<uint8_t> marks;  // ParentsReachRoot's scratch
  // A varint inside the blocks of at most 32 bits (View reads it as a
  // u32) in no more bytes than its value needs; false if there is none.
  const auto varint = [&](uint64_t* at, uint64_t* value) {
    *value = 0;
    const uint64_t first = *at;
    for (unsigned shift = 0;; shift += 7) {
      if (*at == end || shift > 28) return false;
      const uint8_t byte = body_[(*at)++];
      *value |= uint64_t{byte & 0x7fu} << shift;
      if (byte < 0x80) break;
    }
    return *value <= UINT32_MAX && *at - first == VarintLength(*value);
  };
  for (size_t i = 0; i < s; ++i) {
    if (i % GroupWords::kGroup == 0) {
      slots_.bases.push_back(static_cast<uint32_t>(body));
    }
    const uint32_t slot = slots_.word(i);
    if ((slot & flag) == 0) {
      if (slot >= num_vertices_) return false;
      max_singleton = std::max<uint64_t>(max_singleton, slot);
      ++vertices;
      continue;
    }
    const uint64_t offset = body - slots_.base(i);
    if ((slot & ~flag) != offset) return false;
    max_offset = std::max(max_offset, offset);
    // The header, and the edge count of a block that is not an in-tree:
    // they size the block, which must fit before the padding. A
    // one-vertex edgeless sketch is a singleton, not a block.
    uint64_t at = body;
    uint64_t header = 0;
    if (!varint(&at, &header)) return false;
    const uint64_t n = header >> 1;
    const bool in_tree = (header & kInTree) != 0;
    uint64_t m = n - 1;
    if (n == 0 || (!in_tree && !varint(&at, &m))) return false;
    const uint64_t length = BodyLength(n, m, in_tree);
    if (length == 0 || length > end - body ||
        FieldBits(n, m, in_tree) > UINT32_MAX) {
      return false;
    }
    const RRView view = View(i);
    // The bits after the last field, to the block's end, are zero.
    const uint64_t bits = FieldBits(n, m, in_tree);
    if ((bits & 7) != 0 && (body_[body + length - 1] >> (bits & 7)) != 0) {
      return false;
    }
    for (uint64_t j = 0; j < n; ++j) {
      if (view.vertices[j] >= num_vertices_ ||
          (j > 0 && view.vertices[j] <= view.vertices[j - 1])) {
        return false;
      }
    }
    // The in-tree flag is set exactly when the offsets are an in-tree's:
    // a block of an in-tree's shape stored with offsets fails.
    if (view.root_local >= n || (!in_tree && view.InTree())) return false;
    const bool csr_ok = view.VisitCsr([&](const auto& csr) {
      if (csr.offset(0) != 0 || csr.offset(n) != m) return false;
      for (uint64_t j = 0; j < n; ++j) {
        if (csr.offset(j) > csr.offset(j + 1)) return false;
      }
      for (uint64_t k = 0; k < m; ++k) {
        if (csr.head(k) >= n) return false;
      }
      return true;
    });
    if (!csr_ok || (in_tree && !ParentsReachRoot(view, &marks))) return false;
    // Each rank names an out-edge of its tail that ends at the record's
    // head. Every sampler writes 0 <= c(e) <= p(e) <= 1, and 30 bits
    // hold no NaN or negative threshold; one above 1 would make the edge
    // dead under every tag set.
    const bool records_ok = view.VisitCsr([&](const auto& csr) {
      for (uint32_t tail = 0; tail < n; ++tail) {
        const auto out = topology_.OutEdges(view.vertices[tail]);
        for (uint32_t k = csr.offset(tail); k < csr.offset(tail + 1); ++k) {
          const RRLocalEdge e = view.edges[k];
          if (e.rank >= out.size() ||
              out[e.rank].vertex != view.vertices[csr.head(k)] ||
              std::bit_cast<uint32_t>(e.threshold) > kMaxThresholdBits) {
            return false;
          }
        }
      }
      return true;
    });
    if (!records_ok) return false;
    vertices += n;
    body += length;
  }
  if (body != end || vertices > UINT32_MAX ||
      slots_.width() != DirectoryWidth(max_singleton, max_offset) ||
      !std::all_of(body_.begin() + static_cast<std::ptrdiff_t>(end),
                   body_.end(), [](uint8_t byte) { return byte == 0; })) {
    return false;
  }
  BuildContaining(num_vertices_);
  return true;
}

void RrSketchPool::BuildContaining(size_t num_vertices) {
  // A counting sort of the (vertex, sketch id) pairs by vertex, in
  // ascending sketch order: first[v] .. first[v + 1] - 1 index v's ids
  // in `ids`. The counting pass also totals the vertices, which set k.
  std::vector<uint32_t> first(num_vertices + 1, 0);
  size_t max_vertices = 0;
  ForEachVertices([&](const VertexIds& sketch) {
    max_vertices = std::max(max_vertices, sketch.size());
    sketch.ForEach([&](VertexId v) { ++first[v + 1]; });
  });
  uint64_t occurrences = 0;
  for (size_t v = 1; v <= num_vertices; ++v) {
    occurrences += first[v];
    first[v] = static_cast<uint32_t>(occurrences);
  }
  PITEX_CHECK_MSG(occurrences <= UINT32_MAX,
                  "containing index exceeds 32-bit offsets");
  std::vector<uint32_t> ids(occurrences);
  {
    std::vector<uint32_t> cursor(first.begin(), first.end() - 1);
    uint32_t id = 0;
    ForEachVertices([&](const VertexIds& sketch) {
      sketch.ForEach([&](VertexId v) { ids[cursor[v]++] = id; });
      ++id;
    });
  }
  const auto list = [&](size_t v) {
    return std::span<const uint32_t>(ids).subspan(first[v],
                                                  first[v + 1] - first[v]);
  };
  const uint32_t k = RiceParameter(num_sketches(), num_vertices, occurrences);
  // Each list's start in bits, then each group's largest word: the
  // start of the group's last entry less the start of its first.
  std::vector<uint64_t> start(num_vertices + 1, 0);
  for (size_t v = 0; v < num_vertices; ++v) {
    start[v + 1] = start[v] + RiceListBits(list(v), k);
  }
  const uint64_t bits = start[num_vertices];
  PITEX_CHECK_MSG(bits <= UINT32_MAX,
                  "containing index exceeds 32-bit offsets");
  constexpr size_t kGroup = GroupWords::kGroup;
  uint64_t max_word = 0;
  for (size_t v = 0; v <= num_vertices; v += kGroup) {
    const size_t last = std::min(v + kGroup - 1, num_vertices);
    max_word = std::max(max_word, start[last] - start[v]);
  }
  containing_starts_.Clear();
  containing_starts_.Reserve(num_vertices + 1, max_word <= UINT16_MAX ? 2 : 4);
  for (size_t v = 0; v <= num_vertices; ++v) {
    containing_starts_.OpenGroup(start[v]);
    containing_starts_.Push(
        static_cast<uint32_t>(start[v] - containing_starts_.base(v)));
  }
  containing_.assign(PaddedBytes(bits), 0);
  BitWriter writer(containing_.data());
  for (size_t v = 0; v < num_vertices; ++v) PutRiceList(list(v), k, &writer);
  [[maybe_unused]] const uint64_t written = writer.Finish();
  PITEX_DCHECK(written == bits);
  containing_k_ = k;
  max_sketch_vertices_ = static_cast<uint32_t>(max_vertices);
}

size_t RrSketchPool::SizeBytes() const {
  return sizeof(RrSketchPool) + slots_.SizeBytes() +
         containing_starts_.SizeBytes() + body_.capacity() +
         containing_.capacity();
}

void RrSketchOverlay::Put(uint32_t id, const RRView& sketch) {
  const size_t word = id >> 6;
  if (word >= repaired_bits_.size()) repaired_bits_.resize(word + 1, 0);
  repaired_bits_[word] |= uint64_t{1} << (id & 63);
  slot_of_[id] = static_cast<uint32_t>(store_.num_sketches());
  store_.Append(sketch);
}

RrSketchPool RrSketchOverlay::Fold(const RrSketchPool& base) const {
  const uint64_t theta = base.num_sketches();
  std::vector<RrSketchPool::Segment> segments;
  segments.reserve(2 * slot_of_.size() + 1);
  uint64_t next = 0;  // the first id not yet in a segment
  for (size_t w = 0; w < repaired_bits_.size(); ++w) {
    for (uint64_t bits = repaired_bits_[w]; bits != 0; bits &= bits - 1) {
      const uint64_t id = 64 * w + static_cast<uint64_t>(
                                       std::countr_zero(bits));
      if (id > next) {
        segments.push_back({next, &base, static_cast<uint32_t>(next),
                            static_cast<uint32_t>(id - next)});
      }
      segments.push_back(
          {id, &store_, slot_of_.at(static_cast<uint32_t>(id)), 1});
      next = id + 1;
    }
  }
  if (theta > next) {
    segments.push_back({next, &base, static_cast<uint32_t>(next),
                        static_cast<uint32_t>(theta - next)});
  }
  return RrSketchPool::FromRuns(segments, theta, base);
}

void RrSketchOverlay::SetContaining(VertexId u,
                                    std::span<const uint32_t> ids) {
  CodedList& list = containing_[u];
  list.bits = RiceListBits(ids, containing_k_);
  list.bytes.assign(PaddedBytes(list.bits), 0);
  BitWriter writer(list.bytes.data());
  PutRiceList(ids, containing_k_, &writer);
  writer.Finish();
}

size_t RrSketchOverlay::SizeBytes() const {
  // Hash nodes are costed as key/value plus two pointers.
  size_t bytes = sizeof(RrSketchOverlay) + store_.SizeBytes() +
                 repaired_bits_.capacity() * sizeof(uint64_t) +
                 slot_of_.size() * (sizeof(uint64_t) + 2 * sizeof(void*));
  for (const auto& [u, list] : containing_) {
    bytes += sizeof(u) + sizeof(list) + 2 * sizeof(void*) +
             list.bytes.capacity();
  }
  return bytes;
}

}  // namespace pitex
