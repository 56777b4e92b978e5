#include "src/index/rr_sketch_pool.h"

#include <algorithm>

#include "src/util/check.h"

namespace pitex {

void RrSketchPool::Append(const RRView& sketch) {
  const size_t n = sketch.vertices.size();
  const size_t m = sketch.edges.size();
  AppendSketch(sketch.root_local, sketch.vertices, m, [&](const auto& out) {
    sketch.VisitCsr([&](const auto& in) {
      PITEX_DCHECK(in.offset(n) == m);
      for (size_t j = 0; j <= n; ++j) out.set_offset(j, in.offset(j));
      for (size_t k = 0; k < m; ++k) out.set_head(k, in.head(k));
    });
    std::ranges::copy(sketch.edges, out.edges);
  });
}

void RrSketchPool::Clear() {
  slots_.clear();
  body_.clear();
  edges_.clear();
  containing_starts_.clear();
  containing_.clear();
  max_sketch_vertices_ = 0;
}

std::pair<uint64_t, uint64_t> RrSketchPool::Starts(size_t i) const {
  for (; i < num_sketches(); ++i) {
    if ((slots_[i] & kExplicit) != 0) {
      const uint32_t b = slots_[i] & ~kExplicit;
      return {b, body_[b]};
    }
  }
  return {body_.size(), edges_.size()};
}

RrSketchPool RrSketchPool::FromRuns(std::span<const RrSketchPool> runs,
                                    std::span<const Segment> segments,
                                    uint64_t num_sketches,
                                    size_t num_vertices, ThreadPool* pool) {
  // Each segment's slices of its run, put in sample order.
  struct Slice {
    uint64_t sample;
    const RrSketchPool* run;
    uint32_t first, count;
    uint64_t body_begin, body_end, edge_begin, edge_end;
  };
  std::vector<Slice> slices;
  slices.reserve(segments.size());
  for (const Segment& seg : segments) {
    PITEX_CHECK_MSG(seg.run < runs.size() &&
                        uint64_t{seg.first} + seg.count <=
                            runs[seg.run].num_sketches(),
                    "run segment out of range");
    if (seg.count == 0) continue;
    const RrSketchPool& run = runs[seg.run];
    const auto [body_begin, edge_begin] = run.Starts(seg.first);
    const auto [body_end, edge_end] = run.Starts(seg.first + seg.count);
    slices.push_back({seg.sample, &run, seg.first, seg.count, body_begin,
                      body_end, edge_begin, edge_end});
  }
  std::ranges::sort(slices, {}, &Slice::sample);
  uint64_t covered = 0;
  uint64_t body = 0;
  uint64_t edges = 0;
  for (const Slice& s : slices) {
    PITEX_CHECK_MSG(s.sample == covered,
                    "runs must cover every sample exactly once");
    covered += s.count;
    body += s.body_end - s.body_begin;
    edges += s.edge_end - s.edge_begin;
  }
  PITEX_CHECK_MSG(covered == num_sketches,
                  "runs must cover every sample exactly once");
  // The totals only grow, so checking them once covers every entry (the
  // runs checked each vertex id as they took it).
  PITEX_CHECK_MSG(num_sketches < UINT32_MAX && body <= kExplicit &&
                      edges <= UINT32_MAX,
                  "sketch pool exceeds its directory words");

  // Exact-size arrays, filled by appends (no zero-fill pass).
  RrSketchPool out;
  out.slots_.reserve(num_sketches);
  out.body_.reserve(body);
  out.edges_.reserve(edges);
  for (const Slice& s : slices) {
    const RrSketchPool& run = *s.run;
    // Unsigned wrap-around makes the rebase exact whichever way a
    // segment moves.
    const auto body_shift =
        static_cast<uint32_t>(out.body_.size() - s.body_begin);
    const auto edge_shift =
        static_cast<uint32_t>(out.edges_.size() - s.edge_begin);
    out.body_.insert(out.body_.end(), run.body_.begin() + s.body_begin,
                     run.body_.begin() + s.body_end);
    const uint32_t end = s.first + s.count;
    for (uint32_t j = s.first; j < end; ++j) {
      uint32_t slot = run.slots_[j];
      if ((slot & kExplicit) != 0) {
        const uint32_t b = (slot & ~kExplicit) + body_shift;
        slot = kExplicit | b;
        out.body_[b] += edge_shift;  // the block's edge header
      }
      out.slots_.push_back(slot);
    }
    out.edges_.insert(out.edges_.end(), run.edges_.begin() + s.edge_begin,
                      run.edges_.begin() + s.edge_end);
  }
  out.BuildContaining(num_vertices, pool);
  return out;
}

void RrSketchPool::BuildContaining(size_t num_vertices, ThreadPool* pool) {
  const size_t s = num_sketches();
  max_sketch_vertices_ = 0;
  uint64_t volume = 0;  // vertices plus one per sketch
  for (size_t i = 0; i < s; ++i) {
    const size_t n = Vertices(i).size();
    max_sketch_vertices_ = std::max(max_sketch_vertices_, n);
    volume += n + 1;
  }
  containing_starts_.assign(num_vertices + 1, 0);

  const size_t tasks =
      pool == nullptr
          ? 1
          : std::min<size_t>({pool->num_threads(), s, 8});
  if (tasks <= 1) {
    // Counting pass: theta(u) per vertex, then prefix sums, then one fill
    // in ascending sketch-id order (so each per-vertex list is sorted).
    for (size_t i = 0; i < s; ++i) {
      for (const VertexId v : Vertices(i)) ++containing_starts_[v + 1];
    }
    uint64_t total = 0;
    for (size_t v = 0; v < num_vertices; ++v) {
      total += containing_starts_[v + 1];
      containing_starts_[v + 1] = static_cast<uint32_t>(total);
    }
    PITEX_CHECK_MSG(total <= UINT32_MAX,
                    "containing index exceeds 32-bit offsets");
    containing_.resize(total);
    std::vector<uint32_t> cursor(containing_starts_.begin(),
                                 containing_starts_.end() - 1);
    for (size_t i = 0; i < s; ++i) {
      for (const VertexId v : Vertices(i)) {
        containing_[cursor[v]++] = static_cast<uint32_t>(i);
      }
    }
    return;
  }

  // Parallel variant: contiguous sketch ranges balanced by volume
  // (vertices plus one per sketch), cut in one serial pass: range t
  // starts at the first sketch whose preceding volume reaches t / tasks
  // of the total. Each range histograms its vertices; a serial prefix
  // over (range, vertex) turns the histograms into per-range write
  // cursors, so range r fills its sketches (ascending ids) into the
  // slice after every earlier range's entries — per-vertex order is
  // still ascending sketch id, bit-identical to the serial fill.
  // Transient memory is tasks * |V| counters (tasks is capped at 8).
  std::vector<size_t> bounds(tasks + 1, s);
  bounds[0] = 0;
  uint64_t before = 0;
  for (size_t i = 0, t = 1; i < s && t < tasks; ++i) {
    for (; t < tasks && before >= volume * t / tasks; ++t) bounds[t] = i;
    before += Vertices(i).size() + 1;
  }
  std::vector<std::vector<uint32_t>> hist(tasks);
  ParallelFor(pool, 0, tasks, [&](size_t t) {
    auto& h = hist[t];
    h.assign(num_vertices, 0);
    for (size_t i = bounds[t]; i < bounds[t + 1]; ++i) {
      for (const VertexId v : Vertices(i)) ++h[v];
    }
  });
  uint64_t running = 0;
  for (size_t v = 0; v < num_vertices; ++v) {
    for (size_t t = 0; t < tasks; ++t) {
      const uint32_t count = hist[t][v];
      hist[t][v] = static_cast<uint32_t>(running);  // range t's cursor
      running += count;
    }
    containing_starts_[v + 1] = static_cast<uint32_t>(running);
  }
  PITEX_CHECK_MSG(running <= UINT32_MAX,
                  "containing index exceeds 32-bit offsets");
  containing_.resize(running);
  ParallelFor(pool, 0, tasks, [&](size_t t) {
    auto& cursor = hist[t];
    for (size_t i = bounds[t]; i < bounds[t + 1]; ++i) {
      for (const VertexId v : Vertices(i)) {
        containing_[cursor[v]++] = static_cast<uint32_t>(i);
      }
    }
  });
}

size_t RrSketchPool::SizeBytes() const {
  return sizeof(RrSketchPool) +
         (slots_.capacity() + body_.capacity() +
          containing_starts_.capacity() + containing_.capacity()) *
             sizeof(uint32_t) +
         edges_.capacity() * sizeof(RRLocalEdge);
}

void RrSketchOverlay::Put(uint32_t id, const RRView& sketch) {
  const size_t word = id >> 6;
  if (word >= repaired_bits_.size()) repaired_bits_.resize(word + 1, 0);
  repaired_bits_[word] |= uint64_t{1} << (id & 63);
  slot_of_[id] = static_cast<uint32_t>(store_.num_sketches());
  store_.Append(sketch);
}

std::vector<uint32_t>& RrSketchOverlay::MutableContaining(
    VertexId u, std::span<const uint32_t> base) {
  const auto [it, inserted] = containing_.try_emplace(u);
  if (inserted) it->second.assign(base.begin(), base.end());
  return it->second;
}

size_t RrSketchOverlay::SizeBytes() const {
  // Hash nodes are costed as key/value plus two pointers.
  size_t bytes = sizeof(RrSketchOverlay) + store_.SizeBytes() +
                 repaired_bits_.capacity() * sizeof(uint64_t) +
                 slot_of_.size() * (sizeof(uint64_t) + 2 * sizeof(void*));
  for (const auto& [u, list] : containing_) {
    bytes += sizeof(u) + sizeof(list) + 2 * sizeof(void*) +
             list.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace pitex
