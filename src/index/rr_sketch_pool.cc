#include "src/index/rr_sketch_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <span>

#include "src/index/first_copies.h"
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
  num_vertices_ = std::min<uint64_t>(num_vertices, kIdLimit);
  max_out_degree_ = std::min<uint64_t>(max_out_degree, uint64_t{1} << 32);
  vertex_bits_ = IdBits(num_vertices_);
  rank_bits_ = IdBits(max_out_degree_);
}

void RrSketchPool::Append(const RRView& sketch) {
  const size_t n = sketch.vertices.size();
  const size_t m = sketch.num_edges();
  const bool in_tree = sketch.InTree();
  AppendBlock(sketch.root_local, sketch.vertices, m, in_tree,
              [&](BlockWriter& out) {
    sketch.VisitCsr([&](const auto& in) {
      if (!in_tree) {
        for (size_t j = 0; j <= n; ++j) out.PutOffset(in.offset(j));
      }
      for (size_t k = 0; k < m; ++k) out.PutHead(in.head(k));
    });
    for (size_t k = 0; k < m; ++k) out.PutRank(sketch.ranks[k]);
  });
}

void RrSketchPool::Clear() {
  groups_.clear();
  block_words_.Clear();
  roots_.clear();
  num_sketches_ = 0;
  body_.clear();
  root_starts_.Clear();
  containing_starts_.Clear();
  containing_.clear();
  max_sketch_vertices_ = 0;
  containing_k_ = 0;
}

template <typename Narrow>
void WordArrayOf<Narrow>::Widen() {
  PITEX_DCHECK(shift == 1);
  const size_t count = size();
  units.reserve(2 * units.capacity());
  units.resize(2 * count);
  auto* data = reinterpret_cast<std::byte*>(units.data());
  for (size_t i = count; i-- > 0;) {
    StoreId<uint32_t>(data, i, LoadId<Narrow>(data, i));
  }
  shift = 2;
}
template struct WordArrayOf<uint16_t>;
template struct WordArrayOf<int16_t>;

VertexId RrSketchPool::RootOf(size_t i) const {
  if (!finished()) return roots_[i];
  // The last group whose base is at most i holds the last vertex whose
  // range starts at or before i, whose range holds i: a binary search of
  // the bases without a branch, then a count of the group's words.
  const uint32_t* base = root_starts_.bases.data();
  for (size_t len = root_starts_.bases.size(); len > 1;) {
    const size_t half = len / 2;
    base = base[half] <= i ? base + half : base;
    len -= half;
  }
  const size_t first =
      static_cast<size_t>(base - root_starts_.bases.data()) << kGroupBits;
  const size_t last = std::min(first + kGroup, root_starts_.size());
  const auto offset = static_cast<uint32_t>(i - *base);
  // The group's vertices whose ranges start by i, counted at the words'
  // width with no branch, so the loop vectorizes.
  const auto started = [&]<typename T>() {
    const auto* words =
        reinterpret_cast<const std::byte*>(root_starts_.words.units.data());
    size_t count = 0;
    for (size_t v = first; v < last; ++v) {
      count += LoadId<T>(words, v) <= offset;
    }
    return count;
  };
  const size_t count = root_starts_.words.shift == 1
                           ? started.template operator()<uint16_t>()
                           : started.template operator()<uint32_t>();
  return static_cast<VertexId>(first + count - 1);
}

RrSketchPool RrSketchPool::FromRuns(std::span<const Segment> segments,
                                    std::span<const uint32_t> root_starts,
                                    const RrSketchPool& network) {
  PITEX_CHECK_MSG(root_starts.size() == network.num_vertices_ + 1 &&
                      root_starts.front() == 0 &&
                      std::ranges::is_sorted(root_starts),
                  "root starts must ascend from 0 over the network");
  GroupWords starts;
  starts.Assign(root_starts);
  return FromRuns(segments, std::move(starts), network);
}

RrSketchPool RrSketchPool::FromRuns(std::span<const Segment> segments,
                                    GroupWords root_starts,
                                    const RrSketchPool& network) {
  RrSketchPool out = network.EmptyLike();
  PITEX_CHECK_MSG(root_starts.size() == out.num_vertices_ + 1,
                  "root starts must cover the network");
  const uint64_t num_sketches = root_starts[out.num_vertices_];
  std::vector<Segment> sorted;
  sorted.reserve(segments.size());
  std::vector<const RrSketchPool*> runs;  // each run once
  uint64_t blocks = 0;
  uint64_t bound = 0;  // the runs' bodies: no byte of them is copied twice
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
    blocks += run.BlockRank(seg.first + seg.count) - run.BlockRank(seg.first);
    if (std::ranges::find(runs, &run) == runs.end()) {
      runs.push_back(&run);
      bound += run.BodyEnd();
    }
    sorted.push_back(seg);
  }
  std::ranges::sort(sorted, {}, &Segment::id);
  uint64_t covered = 0;
  for (const Segment& seg : sorted) {
    PITEX_CHECK_MSG(seg.id == covered,
                    "runs must cover every sample exactly once");
    covered += seg.count;
  }
  PITEX_CHECK_MSG(covered == num_sketches,
                  "runs must cover every sample exactly once");
  PITEX_CHECK_MSG(num_sketches < UINT32_MAX,
                  "sketch pool exceeds its directory words");

  // The blocks in id order, one at a time. A block byte-equal to an
  // earlier first copy of its root range shares that copy's bytes: its
  // word names them. Any other block is a first copy, appended to the
  // new body. Blocks of equal bytes have equal bytes in any run (a
  // block's bits are relative to its first byte, at the pool's widths),
  // so the runs' bytes are compared. A group's base is where the next
  // first copy goes when the walk reaches the group's first sketch.
  out.root_starts_ = std::move(root_starts);
  out.groups_.reserve((num_sketches + kGroup - 1) / kGroup);
  out.block_words_.Reserve(blocks, 2);
  constexpr uint64_t kHead = sizeof(uint64_t);
  // The first copies, back to back, then room for one more 8-byte store.
  const auto body = std::make_unique_for_overwrite<uint8_t[]>(bound + kHead);
  uint64_t at = 0;  // where the next first copy goes
  FirstCopies firsts;      // the current root range's, by their runs' bytes
  uint64_t range_end = 0;  // the first id past that range
  VertexId root = 0;
  uint64_t id = 0;
  for (const Segment& seg : sorted) {
    const RrSketchPool& run = *seg.run;
    run.ForEachSketch(seg.first, seg.first + seg.count,
                      [&](bool block, uint64_t start) {
      out.OpenGroup(at);
      if (!block) {
        out.PushSingleton();
        ++id;
        return;
      }
      if (id >= range_end) {
        while (out.RootStart(root + 1) <= id) ++root;
        range_end = out.RootStart(root + 1);
        firsts.Clear();
      }
      ++id;
      const uint8_t* from = run.body_.data() + start;
      const uint64_t length = run.BlockLength(from);
      if (const FirstCopies::Copy* first = firsts.FindOrAdd(from, length, at)) {
        out.PushBlock(first->start);
        return;
      }
      // A run's block is copied once unless two segments name it.
      PITEX_CHECK_MSG(at + length <= bound,
                      "run segments name one sketch twice");
      out.PushBlock(at);
      std::memcpy(body.get() + at, from, std::max(length, kHead));
      at += length;
    });
  }
  // The total only grows, so checking it once covers every start (the
  // runs checked each vertex id as they took it).
  PITEX_CHECK_MSG(at <= kIdLimit, "sketch pool exceeds its directory words");
  if (at != 0) {
    out.body_.resize(at + kBitPadding);
    std::memcpy(out.body_.data(), body.get(), at);
  }
  out.BuildContaining(out.num_vertices_);
  return out;
}

RrSketchPool::FileDirectory RrSketchPool::SaveDirectory() const {
  FileDirectory file;
  uint64_t max_count = 0;
  for (size_t v = 0; v < num_universe_vertices(); ++v) {
    max_count = std::max<uint64_t>(max_count, RootRange(v).size());
  }
  file.count_width = CountWidth(max_count);
  file.counts.resize(num_universe_vertices() * file.count_width);
  auto* counts = reinterpret_cast<std::byte*>(file.counts.data());
  for (size_t v = 0; v < num_universe_vertices(); ++v) {
    const auto count = static_cast<uint32_t>(RootRange(v).size());
    if (file.count_width == 1) {
      file.counts[v] = static_cast<uint8_t>(count);
    } else if (file.count_width == 2) {
      StoreId<uint16_t>(counts, v, count);
    } else {
      StoreId<uint32_t>(counts, v, count);
    }
  }
  // The masks and the block words as the pool holds them: a word is its
  // block's start less its group's base, at the width the words need.
  file.masks.reserve(groups_.size());
  for (const Group& group : groups_) file.masks.push_back(group.mask);
  file.width = block_words_.width();
  file.words.resize(block_words_.size() * file.width);
  if (!file.words.empty()) {
    std::memcpy(file.words.data(), block_words_.units.data(),
                file.words.size());
  }
  return file;
}

bool RrSketchPool::FinishLoaded(const Graph& topology,
                                const FileDirectory& file) {
  SetNetwork(topology.num_vertices(), topology.MaxOutDegree());
  topology_ = topology;
  const uint64_t s = file.num_sketches;
  const uint32_t width = file.width;
  // The blocks, then their padding (none without a block).
  if (!body_.empty() && body_.size() <= kBitPadding) return false;
  const uint64_t end = BodyEnd();
  if (s >= UINT32_MAX || end > kIdLimit) return false;
  // Each root's sketches, summed into the root starts: they must count
  // every sketch once, at the width the largest count needs.
  if (file.counts.size() != num_vertices_ * file.count_width) return false;
  const auto* counts = reinterpret_cast<const std::byte*>(file.counts.data());
  std::vector<uint32_t> root_start(num_vertices_ + 1, 0);
  uint64_t max_count = 0;
  for (size_t v = 0; v < num_vertices_; ++v) {
    const uint32_t count =
        file.count_width == 1   ? file.counts[v]
        : file.count_width == 2 ? LoadId<uint16_t>(counts, v)
                                : LoadId<uint32_t>(counts, v);
    const uint64_t next = uint64_t{root_start[v]} + count;
    if (next > s) return false;
    root_start[v + 1] = static_cast<uint32_t>(next);
    max_count = std::max<uint64_t>(max_count, count);
  }
  if (root_start[num_vertices_] != s ||
      file.count_width != CountWidth(max_count)) {
    return false;
  }
  // A mask per group of 64 sketches, no bit set past the last sketch,
  // and a word per set bit.
  if (file.masks.size() != (s + kGroup - 1) / kGroup ||
      ((width != 2 && width != 4) || file.words.size() % width != 0)) {
    return false;
  }
  uint64_t blocks = 0;
  for (const uint64_t mask : file.masks) blocks += PopCount(mask);
  if ((s % kGroup != 0 && (file.masks.back() >> (s % kGroup)) != 0) ||
      blocks != file.words.size() / width) {
    return false;
  }
  root_starts_.Assign(std::span<const uint32_t>(root_start));
  const auto* bytes = reinterpret_cast<const std::byte*>(file.words.data());
  // Word b as the block start it names, its group's base plus the word
  // in two's complement.
  const auto start_at = [&](size_t b) {
    const int64_t word =
        width == 2 ? int64_t{static_cast<int16_t>(LoadId<uint16_t>(bytes, b))}
                   : int64_t{static_cast<int32_t>(LoadId<uint32_t>(bytes, b))};
    return int64_t{groups_.back().base} + word;
  };
  groups_.reserve(file.masks.size());
  block_words_.Reserve(blocks, 2);
  uint64_t body = 0;      // where the next first copy must start
  uint64_t vertices = 0;  // every sketch's, which must fit 32 bits
  bool narrow = true;     // every word fits 2 bytes
  size_t block = 0;   // the next block's word
  VertexId root = 0;  // the vertex whose root range holds sketch i
  FirstCopies firsts;  // root's range's
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
    if (root_start[root + 1] <= i) {
      do {
        ++root;
      } while (root_start[root + 1] <= i);
      firsts.Clear();
    }
    OpenGroup(body);
    if (((file.masks[i >> kGroupBits] >> (i & kGroupMask)) & 1) == 0) {
      PushSingleton();
      ++vertices;
      continue;
    }
    // A word names the next first copy's start, or an earlier first
    // copy's of the same root range, whose checks cover it.
    const int64_t start = start_at(block++);
    narrow = narrow && SignedWordArray::FitsNarrow(static_cast<uint32_t>(
                           start - int64_t{groups_.back().base}));
    if (start != static_cast<int64_t>(body)) {
      const FirstCopies::Copy* first =
          start < 0 ? nullptr : firsts.AtStart(static_cast<uint64_t>(start));
      if (first == nullptr) return false;
      PushBlock(first->start);
      uint32_t header;
      GetVarint(first->bytes, &header);
      vertices += header >> kHeaderFlagBits;
      continue;
    }
    // The header, and the edge count of a block that is not an in-tree:
    // they size the block, which must fit before the padding. A
    // one-vertex edgeless sketch is a singleton, not a block.
    uint64_t at = body;
    uint64_t header = 0;
    if (!varint(&at, &header)) return false;
    const uint64_t n = header >> kHeaderFlagBits;
    const bool in_tree = (header & kInTree) != 0;
    uint64_t m = n - 1;
    // A header of at most 32 bits holds n <= kMaxBlockVertices.
    if (n == 0 || (!in_tree && !varint(&at, &m))) return false;
    const uint64_t length = BodyLength(n, m, in_tree);
    if (length == 0 || length > end - body ||
        FieldBits(n, m, in_tree) > UINT32_MAX) {
      return false;
    }
    // A block byte-equal to an earlier first copy of its range shares it.
    if (firsts.FindOrAdd(body_.data() + body, length, body) != nullptr) {
      return false;
    }
    PushBlock(body);
    const RRView view = ViewAt(body_.data() + body, root);
    // The bits after the last field, to the block's end, are zero.
    const uint64_t bits = FieldBits(n, m, in_tree);
    if ((bits & 7) != 0 && (body_[body + length - 1] >> (bits & 7)) != 0) {
      return false;
    }
    // The stored vertices strictly ascend below |V|, and the root id
    // places the root between its neighbours among them.
    const PackedIds& stored = view.vertices.ids();
    const uint32_t r = view.root_local;
    if (r >= n || (r > 0 && stored[r - 1] >= root) ||
        (r + 1 < n && stored[r] <= root)) {
      return false;
    }
    for (uint32_t j = 0; j + 1 < n; ++j) {
      if (stored[j] >= num_vertices_ || (j > 0 && stored[j] <= stored[j - 1])) {
        return false;
      }
    }
    // The in-tree flag is set exactly when the offsets are an in-tree's:
    // a block of an in-tree's shape stored with offsets fails.
    if (!in_tree && view.InTree()) return false;
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
    // head.
    const bool records_ok = view.VisitCsr([&](const auto& csr) {
      for (uint32_t tail = 0; tail < n; ++tail) {
        const auto out = topology_.OutEdges(view.vertices[tail]);
        for (uint32_t k = csr.offset(tail); k < csr.offset(tail + 1); ++k) {
          const uint32_t rank = view.ranks[k];
          if (rank >= out.size() ||
              out[rank].vertex != view.vertices[csr.head(k)]) {
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
  if (body != end || vertices > UINT32_MAX || width != (narrow ? 2u : 4u) ||
      !std::all_of(body_.begin() + static_cast<std::ptrdiff_t>(end),
                   body_.end(), [](uint8_t byte) { return byte == 0; })) {
    return false;
  }
  BuildContaining(num_vertices_);
  return true;
}

void RrSketchPool::BuildContaining(size_t num_vertices) {
  // Calls fn(id, root, range, stored, count) for each block in id order:
  // `root` its root, from a cursor over the root starts that only moves
  // forward, `range` the sketches that root roots, and `stored` its
  // `count` stored vertices.
  const auto each_block = [&](auto&& fn) {
    VertexId root = 0;
    uint32_t range = num_vertices == 0 ? 0 : RootStart(1);
    ForEachStoredIds([&](uint32_t id, const PackedIds& stored,
                         uint32_t count) {
      if (RootStart(root + 1) <= id) {
        do {
          ++root;
        } while (RootStart(root + 1) <= id);
        range = RootStart(root + 1) - RootStart(root);
      }
      fn(id, root, range, stored, count);
    });
  };
  // Each vertex's list, its ids in ascending sketch order: an id opens an
  // entry when its root is not the root of the vertex's id before it.
  // The first pass counts each vertex's ids and tallies its entries'
  // gaps and mask bits, which set k and the lists' size; `at` then turns
  // into where the vertex's next id goes, and the second pass scatters
  // the ids, each with its root, into `ids`, a counting sort by vertex.
  struct List {
    uint32_t at;    // ids counted, then where the next one goes
    VertexId last;  // the root of the id before, or one before 0
  };
  std::vector<List> lists(num_vertices, {0, UINT32_MAX});
  RiceTally gaps(num_vertices);
  uint64_t mask_bits = 0;
  uint32_t max_vertices = num_sketches_ == 0 ? 0 : 1;
  each_block([&](uint32_t, VertexId root, uint32_t range,
                 const PackedIds& stored, uint32_t count) {
    max_vertices = std::max(max_vertices, count + 1);
    for (uint32_t j = 0; j < count; ++j) {
      const VertexId v = stored[j];
      List& list = lists[v];
      ++list.at;
      // Without a branch: about half the ids open an entry. An id that
      // opens none adds no code at a vertex's own value, not one shared
      // value, so no chain of increments forms.
      const uint32_t opens = root != list.last;
      gaps.Add(opens != 0 ? root - list.last - 1 : v, opens);
      mask_bits += range & (0 - opens);
      list.last = root;
    }
  });
  uint64_t occurrences = 0;
  for (List& list : lists) {
    const uint32_t count = list.at;
    list.at = static_cast<uint32_t>(occurrences);
    occurrences += count;
  }
  PITEX_CHECK_MSG(occurrences <= UINT32_MAX,
                  "containing index exceeds 32-bit offsets");
  std::vector<RootedId> ids(occurrences);
  each_block([&](uint32_t id, VertexId root, uint32_t,
                 const PackedIds& stored, uint32_t count) {
    for (uint32_t j = 0; j < count; ++j) {
      ids[lists[stored[j]].at++] = {root, id};
    }
  });
  const uint32_t k = RiceParameter(gaps, num_vertices);
  const uint64_t bits = gaps.Bits(k) + mask_bits;
  PITEX_CHECK_MSG(bits <= UINT32_MAX,
                  "containing index exceeds 32-bit offsets");
  // The lists in vertex order, each starting where the one before ended;
  // vertex v's ids end where `at` stopped.
  std::vector<uint64_t> start(num_vertices + 1, 0);
  containing_.assign(PaddedBytes(bits), 0);
  BitWriter writer(containing_.data());
  for (size_t v = 0, begin = 0; v < num_vertices; begin = lists[v++].at) {
    PutRootList(std::span<const RootedId>(ids).subspan(
                    begin, lists[v].at - begin),
                k, root_starts_, &writer);
    start[v + 1] = writer.position();
  }
  [[maybe_unused]] const uint64_t written = writer.Finish();
  PITEX_DCHECK(written == bits);
  containing_starts_.Assign(std::span<const uint64_t>(start));
  containing_k_ = k;
  max_sketch_vertices_ = max_vertices;
}

size_t RrSketchPool::SizeBytes() const {
  return sizeof(RrSketchPool) + DirectoryBytes() +
         roots_.capacity() * sizeof(VertexId) + root_starts_.SizeBytes() +
         containing_starts_.SizeBytes() + body_.capacity() +
         containing_.capacity();
}

void RrSketchOverlay::Put(uint32_t id, const RRView& sketch) {
  PITEX_CHECK_MSG(base_ == nullptr || (id < base_->num_sketches() &&
                                       base_->RootOf(id) == sketch.root()),
                  "a repair must keep its sketch's id and root");
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
  return RrSketchPool::FromRuns(segments, base.root_starts_, base);
}

void RrSketchOverlay::SetContaining(VertexId u,
                                    std::span<const RootedId> ids) {
  PITEX_CHECK_MSG(base_ != nullptr && base_->finished(),
                  "an overlay's lists take a finished base's root starts");
  CodedList& list = containing_[u];
  const GroupWords& root_starts = base_->root_starts_;
  list.bits = RootListBits(ids, containing_k_, root_starts);
  list.bytes.assign(PaddedBytes(list.bits), 0);
  BitWriter writer(list.bytes.data());
  PutRootList(ids, containing_k_, root_starts, &writer);
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
