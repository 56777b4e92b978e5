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
  if (sketch.IsTree() && (n == 1 || topology_.num_vertices() != 0)) {
    // A parent tree's fields, copied as they are.
    thread_local TreeScratch tree;
    DecodeTree(sketch, kNoVertex, &tree);
    uint64_t rank_bits = 0;
    for (uint32_t j = 1; j < n; ++j) {
      rank_bits += IdBits(topology_.InDegree(tree.vertex(tree.parent(j))));
    }
    AppendTree(sketch.root(), n, rank_bits, [&](TreeWriter& out) {
      for (uint32_t j = 1; j < n; ++j) {
        out.PutChild(tree.parent(j), tree.rank(j),
                     topology_.InDegree(tree.vertex(tree.parent(j))));
      }
    });
    return;
  }
  thread_local DecodedSketch decoded;
  Decode(sketch, &decoded);
  const size_t m = decoded.heads.size();
  if (decoded.ranks.size() != m) {
    // A parent tree's edges, ranked in their tails' out-lists.
    decoded.ranks.resize(m);
    for (uint32_t tail = 0; tail < n; ++tail) {
      for (uint32_t k = decoded.offsets[tail]; k < decoded.offsets[tail + 1];
           ++k) {
        decoded.ranks[k] = sketch.topology->OutRank(decoded.vertices[tail],
                                                    decoded.edges[k]);
      }
    }
  }
  const bool in_tree = IsInTree(
      n, decoded.root_local, [&](size_t j) { return decoded.offsets[j]; });
  AppendSketch(decoded.root_local, decoded.vertices, m, in_tree,
               [&](BlockWriter& out) {
    if (!in_tree) {
      for (size_t j = 0; j <= n; ++j) out.PutOffset(decoded.offsets[j]);
    }
    for (size_t k = 0; k < m; ++k) out.PutHead(decoded.heads[k]);
    for (size_t k = 0; k < m; ++k) out.PutRank(decoded.ranks[k]);
  });
}

void RrSketchPool::AppendInTree(uint32_t root_local,
                                std::span<const VertexId> vertices,
                                const PackedIds& heads,
                                const PackedIds& ranks) {
  const auto n = static_cast<uint32_t>(vertices.size());
  // Each vertex but the root under its parent, by its edge's in-rank
  // there: the children of each vertex, ascending, are one run.
  struct Child {
    uint32_t parent;
    uint32_t rank;
    uint32_t local;
    auto operator<=>(const Child&) const = default;
  };
  thread_local std::vector<Child> children;
  thread_local std::vector<uint32_t> first;  // parent -> its first child
  thread_local std::vector<uint32_t> stack;
  thread_local std::vector<uint32_t> local_of;  // in the tree's order
  children.clear();
  for (uint32_t j = 0; j < n; ++j) {
    if (j == root_local) continue;
    const uint32_t k = InTreeOffset(j, root_local);
    const uint32_t parent = heads[k];
    PITEX_CHECK_MSG(parent < n, "an in-tree's heads must be its vertices");
    const EdgeId e = topology_.OutEdges(vertices[j])[ranks[k]].edge;
    children.push_back({parent, topology_.InRank(vertices[parent], e), j});
  }
  std::ranges::sort(children);
  first.assign(n + 1, 0);
  for (const Child& child : children) ++first[child.parent + 1];
  for (uint32_t v = 0; v < n; ++v) first[v + 1] += first[v];
  // The sampler's order: pop a vertex, give its children the next local
  // ids and push them. Children are put as they are numbered.
  uint64_t rank_bits = 0;
  for (const Child& child : children) {
    rank_bits += IdBits(topology_.InDegree(vertices[child.parent]));
  }
  AppendTree(vertices[root_local], n, rank_bits, [&](TreeWriter& out) {
    local_of.assign(n, 0);
    uint32_t next = 1;
    stack.assign(1, root_local);
    while (!stack.empty()) {
      const uint32_t v = stack.back();
      stack.pop_back();
      const size_t in_degree = topology_.InDegree(vertices[v]);
      for (uint32_t c = first[v]; c < first[v + 1]; ++c) {
        out.PutChild(local_of[v], children[c].rank, in_degree);
        local_of[children[c].local] = next++;
        stack.push_back(children[c].local);
      }
    }
    PITEX_CHECK_MSG(next == n, "an in-tree's parents must lead to its root");
  });
}

void RrSketchPool::Clear() {
  groups_.clear();
  block_words_.Clear();
  roots_.clear();
  num_sketches_ = 0;
  body_.clear();
  root_starts_ = {};
  containing_starts_ = {};
  containing_.clear();
  max_sketch_vertices_ = 0;
  containing_k_ = 0;
}

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
  // The group's vertices whose ranges start by i, counted with no branch.
  const PackedWords::Reader words = root_starts_.words.reader();
  size_t count = 0;
  for (size_t v = first; v < last; ++v) count += words[v] <= offset;
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
  std::vector<std::vector<uint32_t>> ends;  // each run's BlockEnds
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
      ends.push_back(run.BlockEnds());
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
  // first copy goes when the walk reaches the group's first sketch. The
  // words gather in `words`, then are packed once at their final width.
  out.root_starts_ = std::move(root_starts);
  out.groups_.reserve((num_sketches + kGroup - 1) / kGroup);
  std::vector<uint32_t> words;
  words.reserve(blocks);
  const auto push_block = [&out, &words](uint64_t start) {
    words.push_back(static_cast<uint32_t>(start) - out.groups_.back().base);
    out.MarkBlock();
  };
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
    const std::vector<uint32_t>& run_ends =
        ends[static_cast<size_t>(std::ranges::find(runs, &run) - runs.begin())];
    size_t rank = run.BlockRank(seg.first);  // the next block's word
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
      const uint64_t length = run_ends[rank++] - start;
      if (const FirstCopies::Copy* first = firsts.FindOrAdd(from, length, at)) {
        push_block(first->start);
        return;
      }
      // A run's block is copied once unless two segments name it.
      PITEX_CHECK_MSG(at + length <= bound,
                      "run segments name one sketch twice");
      push_block(at);
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
  out.block_words_.Assign(words.size(),
                          [&words](size_t b) { return words[b]; });
  out.BuildContaining(out.num_vertices_);
  return out;
}

std::vector<uint32_t> RrSketchPool::BlockEnds() const {
  // The first copies' starts, ascending, and the body's end after them.
  std::vector<uint32_t> firsts;
  ForEachSketch(0, num_sketches(), [&](bool block, uint64_t start) {
    if (block && (firsts.empty() || start > firsts.back())) {
      firsts.push_back(static_cast<uint32_t>(start));
    }
  });
  firsts.push_back(static_cast<uint32_t>(BodyEnd()));
  std::vector<uint32_t> ends;
  ends.reserve(block_words_.size());
  size_t next = 0;  // the next first copy in storage order
  ForEachSketch(0, num_sketches(), [&](bool block, uint64_t start) {
    if (!block) return;
    if (start == firsts[next]) {
      ends.push_back(firsts[++next]);
      return;
    }
    // A repeat: the first copy it shares, found by its start.
    const auto copy =
        std::ranges::lower_bound(firsts, static_cast<uint32_t>(start));
    ends.push_back(copy[1]);
  });
  return ends;
}

RrSketchPool::FileDirectory RrSketchPool::SaveDirectory() const {
  FileDirectory file;
  PackedWords counts;
  counts.Assign(num_universe_vertices(), [this](size_t v) {
    return RootRange(static_cast<VertexId>(v)).size();
  });
  file.count_width = counts.width();
  file.counts.assign(counts.packed().begin(), counts.packed().end());
  // The masks and the block words as the pool holds them: a word is its
  // block's start less its group's base, at the bits the words take.
  file.masks.reserve(groups_.size());
  for (const Group& group : groups_) file.masks.push_back(group.mask);
  file.width = block_words_.width();
  file.words.assign(block_words_.packed().begin(),
                    block_words_.packed().end());
  return file;
}

bool RrSketchPool::FinishLoaded(const Graph& topology,
                                const FileDirectory& file) {
  SetNetwork(topology.num_vertices(), topology.MaxOutDegree());
  topology_ = topology;
  const uint64_t s = file.num_sketches;
  // The blocks, then their padding (none without a block).
  if (!body_.empty() && body_.size() <= kBitPadding) return false;
  const uint64_t end = BodyEnd();
  if (s >= UINT32_MAX || end > kIdLimit) return false;
  // Each root's sketches, summed into the root starts: they must count
  // every sketch once, at the bits the largest count takes.
  PackedWords counts;
  if (!counts.Load(file.counts, num_vertices_, file.count_width)) {
    return false;
  }
  std::vector<uint32_t> root_start(num_vertices_ + 1, 0);
  uint32_t max_count = 0;
  for (size_t v = 0; v < num_vertices_; ++v) {
    const uint32_t count = counts[v];
    const uint64_t next = uint64_t{root_start[v]} + count;
    if (next > s) return false;
    root_start[v + 1] = static_cast<uint32_t>(next);
    max_count = std::max(max_count, count);
  }
  if (root_start[num_vertices_] != s ||
      file.count_width != counts.BitsOf(max_count)) {
    return false;
  }
  // A mask per group of 64 sketches, no bit set past the last sketch,
  // and a word per set bit, which are the pool's words as they are.
  if (file.masks.size() != (s + kGroup - 1) / kGroup) return false;
  uint64_t blocks = 0;
  for (const uint64_t mask : file.masks) blocks += PopCount(mask);
  if ((s % kGroup != 0 && (file.masks.back() >> (s % kGroup)) != 0) ||
      !block_words_.Load(file.words, blocks, file.width)) {
    return false;
  }
  root_starts_.Assign(std::span<const uint32_t>(root_start));
  groups_.reserve(file.masks.size());
  uint64_t body = 0;      // where the next first copy must start
  uint64_t vertices = 0;  // every sketch's, which must fit 32 bits
  uint32_t width = 0;     // the bits the words take
  size_t block = 0;   // the next block's word
  VertexId root = 0;  // the vertex whose root range holds sketch i
  FirstCopies firsts;  // root's range's
  // A parent tree's vertices, decoded; the vertices met in the block
  // being checked (seen[v] == epoch); and the stack of its vertices whose
  // children come later.
  std::vector<VertexId> tree;
  std::vector<uint32_t> seen(num_vertices_, 0);
  uint32_t epoch = 0;
  std::vector<uint32_t> stack;
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
    // copy's of the same root range, whose checks cover it: its group's
    // base plus the word in two's complement.
    const uint32_t word = block_words_[block++];
    width = std::max(width, block_words_.BitsOf(word));
    const int64_t start =
        int64_t{groups_.back().base} + static_cast<int32_t>(word);
    if (start != static_cast<int64_t>(body)) {
      const FirstCopies::Copy* first =
          start < 0 ? nullptr : firsts.AtStart(static_cast<uint64_t>(start));
      if (first == nullptr) return false;
      MarkBlock();
      uint32_t header;
      GetVarint(first->bytes, &header);
      vertices += header >> kHeaderFlagBits;
      continue;
    }
    // The header, and the edge count of a general-form block: with a
    // parent tree's fields they size the block, which must end before
    // the padding. A one-vertex edgeless sketch is a singleton, not a
    // block.
    uint64_t at = body;
    uint64_t header = 0;
    if (!varint(&at, &header)) return false;
    const uint64_t n = header >> kHeaderFlagBits;
    const bool in_tree = (header & kInTree) != 0;
    uint64_t m = n - 1;
    // A header of at most 32 bits holds n <= kMaxBlockVertices.
    if (n == 0 || (!in_tree && !varint(&at, &m)) || (n == 1 && m == 0)) {
      return false;
    }
    uint64_t bits = 0;  // the fields'
    if (in_tree) {
      // Decoded top-down: each parent comes before its child, each rank
      // names an in-edge of the parent, no vertex comes twice, and the
      // order is the sampler's (AppendTree): a vertex's children are the
      // next ids when it is popped off the stack of vertices met, in
      // ascending in-rank.
      const uint8_t* fields = body_.data() + at;
      const uint64_t limit = 8 * (end - at);
      const uint32_t parent_bits = IdBits(n - 1);
      // A field of `size` bits at bit `pos`, loaded only when it has a
      // bit, so no load starts past the blocks' padding.
      const auto field = [fields](uint64_t pos, uint32_t size) {
        return size == 0 ? 0 : LoadBits(fields, pos) & LowMask(size);
      };
      // No tree holds more vertices than the network, or fields past the
      // blocks: a crafted header allocates nothing larger.
      if (n > num_vertices_ || (n - 1) * parent_bits > limit) return false;
      tree.resize(n);
      tree[0] = root;
      if (++epoch == 0) {
        std::ranges::fill(seen, 0);
        epoch = 1;
      }
      seen[root] = epoch;
      stack.clear();
      uint32_t popped = 0;  // the vertex whose children come next
      uint64_t last_rank = UINT64_MAX;  // none yet
      for (uint32_t j = 1; j < n; ++j) {
        if (bits + parent_bits > limit) return false;
        const auto parent = static_cast<uint32_t>(field(bits, parent_bits));
        bits += parent_bits;
        if (parent >= j) return false;
        const auto in = topology_.InEdges(tree[parent]);
        const uint32_t rank_bits = IdBits(in.size());
        if (bits + rank_bits > limit) return false;
        const uint64_t rank = field(bits, rank_bits);
        bits += rank_bits;
        if (rank >= in.size()) return false;
        const VertexId v = in[rank].vertex;
        if (seen[v] == epoch) return false;
        seen[v] = epoch;
        tree[j] = v;
        while (parent != popped) {
          if (stack.empty()) return false;
          popped = stack.back();
          stack.pop_back();
          last_rank = UINT64_MAX;
        }
        if (last_rank != UINT64_MAX && rank <= last_rank) return false;
        last_rank = rank;
        stack.push_back(j);
      }
    } else {
      bits = FieldBits(n, m);
      if (bits > 8 * (end - at)) return false;
    }
    if (bits > UINT32_MAX) return false;
    const uint64_t length = at - body + (bits + 7) / 8;
    // The bits after the last field, to the block's end, are zero.
    if ((bits & 7) != 0 && (body_[body + length - 1] >> (bits & 7)) != 0) {
      return false;
    }
    // A block byte-equal to an earlier first copy of its range shares it.
    if (firsts.FindOrAdd(body_.data() + body, length, body) != nullptr) {
      return false;
    }
    MarkBlock();
    if (!in_tree) {
      const RRView view = ViewAt(body_.data() + body, root);
      // The stored vertices strictly ascend below |V|, and the root id
      // places the root between its neighbours among them.
      const PackedIds& stored = view.vertices.ids();
      const uint32_t r = view.root_local;
      if (r >= n || (r > 0 && stored[r - 1] >= root) ||
          (r + 1 < n && stored[r] <= root)) {
        return false;
      }
      for (uint32_t j = 0; j + 1 < n; ++j) {
        if (stored[j] >= num_vertices_ ||
            (j > 0 && stored[j] <= stored[j - 1])) {
          return false;
        }
      }
      const bool csr_ok = view.VisitCsr([&](const LocalCsr& csr) {
        if (csr.offset(0) != 0 || csr.offset(n) != m) return false;
        for (uint64_t j = 0; j < n; ++j) {
          if (csr.offset(j) > csr.offset(j + 1)) return false;
        }
        for (uint64_t k = 0; k < m; ++k) {
          if (csr.head(k) >= n) return false;
        }
        return true;
      });
      // An in-tree's shape is stored as a parent tree.
      if (!csr_ok || view.InTree()) return false;
      // Each rank names an out-edge of its tail that ends at the
      // record's head.
      const bool records_ok = view.VisitCsr([&](const LocalCsr& csr) {
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
    }
    vertices += n;
    body += length;
  }
  if (body != end || vertices > UINT32_MAX || width != file.width ||
      !std::all_of(body_.begin() + static_cast<std::ptrdiff_t>(end),
                   body_.end(), [](uint8_t byte) { return byte == 0; })) {
    return false;
  }
  BuildContaining(num_vertices_);
  return true;
}

void RrSketchPool::BuildContaining(size_t num_vertices) {
  // Each block's vertices but its root, in id order, decoded once into
  // `flat`: a parent tree's top-down, a general block's from its stored
  // ids. A repeat takes its first copy's, found by its start among its
  // root range's first copies, whose starts ascend: a first copy's start
  // is past every start before it, and a repeat's is one of them.
  struct Block {
    uint32_t id;
    VertexId root;
    uint32_t begin;  // its vertices in `flat`
    uint32_t end;
  };
  std::vector<Block> blocks;
  blocks.reserve(block_words_.size());
  std::vector<VertexId> flat;
  // The current range's first copies: each one's start and Block.
  std::vector<std::pair<uint32_t, uint32_t>> firsts;
  TreeScratch tree;
  VertexId root = 0;
  uint32_t id = 0;
  ForEachSketch(0, num_sketches(), [&](bool block, uint64_t at) {
    if (block) {
      if (RootStart(root + 1) <= id) {
        do {
          ++root;
        } while (RootStart(root + 1) <= id);
        firsts.clear();
      }
      const auto start = static_cast<uint32_t>(at);
      if (!firsts.empty() && start <= firsts.back().first) {
        const auto copy = std::ranges::lower_bound(
            firsts, start, {}, &std::pair<uint32_t, uint32_t>::first);
        Block repeat = blocks[copy->second];
        repeat.id = id;
        blocks.push_back(repeat);
      } else {
        const RRView view = ViewAt(body_.data() + at, root);
        const auto n = static_cast<uint32_t>(view.vertices.size());
        const auto begin = static_cast<uint32_t>(flat.size());
        if (view.IsTree()) {
          DecodeTree(view, kNoVertex, &tree);
          flat.insert(flat.end(), tree.vertex_data() + 1,
                      tree.vertex_data() + n);
        } else {
          for (uint32_t j = 0; j + 1 < n; ++j) {
            flat.push_back(view.vertices.ids()[j]);
          }
        }
        firsts.emplace_back(start, static_cast<uint32_t>(blocks.size()));
        blocks.push_back(
            {id, root, begin, static_cast<uint32_t>(flat.size())});
      }
    }
    ++id;
  });
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
  for (const Block& block : blocks) {
    const uint32_t range = RootStart(block.root + 1) - RootStart(block.root);
    max_vertices = std::max(max_vertices, block.end - block.begin + 1);
    for (uint32_t j = block.begin; j < block.end; ++j) {
      const VertexId v = flat[j];
      List& list = lists[v];
      ++list.at;
      // Without a branch: about half the ids open an entry. An id that
      // opens none adds no code at a vertex's own value, not one shared
      // value, so no chain of increments forms.
      const uint32_t opens = block.root != list.last;
      gaps.Add(opens != 0 ? block.root - list.last - 1 : v, opens);
      mask_bits += range & (0 - opens);
      list.last = block.root;
    }
  }
  uint64_t occurrences = 0;
  for (List& list : lists) {
    const uint32_t count = list.at;
    list.at = static_cast<uint32_t>(occurrences);
    occurrences += count;
  }
  PITEX_CHECK_MSG(occurrences <= UINT32_MAX,
                  "containing index exceeds 32-bit offsets");
  std::vector<RootedId> ids(occurrences);
  for (const Block& block : blocks) {
    for (uint32_t j = block.begin; j < block.end; ++j) {
      ids[lists[flat[j]].at++] = {block.root, block.id};
    }
  }
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
