#include "src/index/rr_sketch_pool.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace pitex {

RrSketchPool RrSketchPool::Pack(
    size_t num_sketches, size_t num_vertices,
    const std::function<RRView(size_t)>& view_of) {
  RrSketchPool out;
  const size_t s = num_sketches;
  out.roots_.resize(s);
  out.vertex_starts_.assign(s + 1, 0);
  out.edge_starts_.assign(s + 1, 0);
  for (size_t i = 0; i < s; ++i) {
    const RRView rr = view_of(i);
    PITEX_DCHECK(rr.offsets.size() == rr.vertices.size() + 1);
    out.vertex_starts_[i + 1] = out.vertex_starts_[i] + rr.vertices.size();
    out.edge_starts_[i + 1] = out.edge_starts_[i] + rr.edges.size();
  }
  out.vertices_.resize(out.vertex_starts_[s]);
  out.offsets_.resize(out.vertex_starts_[s] + s);
  out.edges_.resize(out.edge_starts_[s]);
  for (size_t i = 0; i < s; ++i) {
    const RRView rr = view_of(i);
    out.roots_[i] = rr.root;
    std::copy(rr.vertices.begin(), rr.vertices.end(),
              out.vertices_.begin() +
                  static_cast<ptrdiff_t>(out.vertex_starts_[i]));
    std::copy(rr.offsets.begin(), rr.offsets.end(),
              out.offsets_.begin() +
                  static_cast<ptrdiff_t>(out.vertex_starts_[i] + i));
    std::copy(rr.edges.begin(), rr.edges.end(),
              out.edges_.begin() +
                  static_cast<ptrdiff_t>(out.edge_starts_[i]));
  }
  out.BuildContaining(num_vertices);
  return out;
}

RrSketchPool RrSketchPool::Pack(std::span<const RRGraph> graphs,
                                size_t num_vertices) {
  return Pack(graphs.size(), num_vertices,
              [graphs](size_t i) { return graphs[i].View(); });
}

void RrSketchPool::Append(const RRView& sketch) {
  if (vertex_starts_.empty()) {
    vertex_starts_.push_back(0);
    edge_starts_.push_back(0);
  }
  roots_.push_back(sketch.root);
  vertices_.insert(vertices_.end(), sketch.vertices.begin(),
                   sketch.vertices.end());
  offsets_.insert(offsets_.end(), sketch.offsets.begin(),
                  sketch.offsets.end());
  edges_.insert(edges_.end(), sketch.edges.begin(), sketch.edges.end());
  vertex_starts_.push_back(vertices_.size());
  edge_starts_.push_back(edges_.size());
  max_sketch_vertices_ =
      std::max<size_t>(max_sketch_vertices_, sketch.vertices.size());
}

RrSketchPool RrSketchPool::PackFrom(std::span<const SketchArena> arenas,
                                    uint64_t num_sketches,
                                    size_t num_vertices, ThreadPool* pool) {
  RrSketchPool out;
  const size_t s = num_sketches;
  // Pass 1: locate each sample across the arenas and size every pooled
  // array exactly from the arena counters — no growth, no staging.
  std::vector<std::pair<uint32_t, uint32_t>> where(s);
  size_t located = 0;
  for (uint32_t a = 0; a < arenas.size(); ++a) {
    for (uint32_t slot = 0; slot < arenas[a].num_sketches(); ++slot) {
      const uint64_t sample = arenas[a].sample_index(slot);
      PITEX_CHECK_MSG(sample < s, "arena sample index out of range");
      where[sample] = {a, slot};
      ++located;
    }
  }
  PITEX_CHECK_MSG(located == s, "arenas must cover every sample exactly once");

  out.roots_.resize(s);
  out.vertex_starts_.assign(s + 1, 0);
  out.edge_starts_.assign(s + 1, 0);
  for (size_t i = 0; i < s; ++i) {
    const auto [a, slot] = where[i];
    // located == s plus this round-trip rules out duplicate samples
    // silently shadowing a missing one (O(s), negligible vs the copy).
    PITEX_CHECK_MSG(arenas[a].sample_index(slot) == i,
                    "duplicate arena sample index");
    out.roots_[i] = arenas[a].root(slot);
    out.vertex_starts_[i + 1] =
        out.vertex_starts_[i] + arenas[a].sketch_vertices(slot);
    out.edge_starts_[i + 1] =
        out.edge_starts_[i] + arenas[a].sketch_edges(slot);
  }
  out.vertices_.resize(out.vertex_starts_[s]);
  out.offsets_.resize(out.vertex_starts_[s] + s);
  out.edges_.resize(out.edge_starts_[s]);

  // Pass 2: copy each sketch's segments once, straight arena -> pool.
  const auto copy_one = [&](size_t i) {
    const auto [a, slot] = where[i];
    const RRView rr = arenas[a].View(slot);
    std::copy(rr.vertices.begin(), rr.vertices.end(),
              out.vertices_.begin() +
                  static_cast<ptrdiff_t>(out.vertex_starts_[i]));
    std::copy(rr.offsets.begin(), rr.offsets.end(),
              out.offsets_.begin() +
                  static_cast<ptrdiff_t>(out.vertex_starts_[i] + i));
    std::copy(rr.edges.begin(), rr.edges.end(),
              out.edges_.begin() +
                  static_cast<ptrdiff_t>(out.edge_starts_[i]));
  };
  if (pool != nullptr && s >= 2) {
    ParallelFor(pool, 0, s, copy_one);
  } else {
    for (size_t i = 0; i < s; ++i) copy_one(i);
  }
  out.BuildContaining(num_vertices, pool);
  return out;
}

void RrSketchPool::BuildContaining(size_t num_vertices, ThreadPool* pool) {
  const size_t s = num_sketches();
  max_sketch_vertices_ = 0;
  for (size_t i = 0; i < s; ++i) {
    max_sketch_vertices_ = std::max<size_t>(
        max_sketch_vertices_, vertex_starts_[i + 1] - vertex_starts_[i]);
  }
  containing_starts_.assign(num_vertices + 1, 0);
  containing_.resize(vertices_.size());

  const size_t tasks =
      pool == nullptr
          ? 1
          : std::min<size_t>({pool->num_threads(), s, 8});
  if (tasks <= 1) {
    // Counting pass: theta(u) per vertex, then prefix sums, then one fill
    // in ascending sketch-id order (so each per-vertex list is sorted).
    for (const VertexId v : vertices_) ++containing_starts_[v + 1];
    for (size_t v = 0; v < num_vertices; ++v) {
      containing_starts_[v + 1] += containing_starts_[v];
    }
    std::vector<uint64_t> cursor(containing_starts_.begin(),
                                 containing_starts_.end() - 1);
    for (size_t i = 0; i < s; ++i) {
      for (uint64_t j = vertex_starts_[i]; j < vertex_starts_[i + 1]; ++j) {
        containing_[cursor[vertices_[j]]++] = static_cast<uint32_t>(i);
      }
    }
    return;
  }

  // Parallel variant: contiguous sketch ranges balanced by vertex
  // volume. Each range histograms its vertices; a serial prefix over
  // (range, vertex) turns the histograms into per-range write cursors,
  // so range r fills its sketches (ascending ids) into the slice after
  // every earlier range's entries — per-vertex order is still ascending
  // sketch id, bit-identical to the serial fill. Transient memory is
  // tasks * |V| counters (tasks is capped at 8).
  std::vector<size_t> bounds(tasks + 1, s);
  bounds[0] = 0;
  const uint64_t total = vertices_.size();
  for (size_t t = 1; t < tasks; ++t) {
    const uint64_t target = total * t / tasks;
    bounds[t] = static_cast<size_t>(
        std::lower_bound(vertex_starts_.begin(), vertex_starts_.end(),
                         target) -
        vertex_starts_.begin());
  }
  std::vector<std::vector<uint64_t>> hist(tasks);
  ParallelFor(pool, 0, tasks, [&](size_t t) {
    auto& h = hist[t];
    h.assign(num_vertices, 0);
    for (uint64_t j = vertex_starts_[bounds[t]];
         j < vertex_starts_[bounds[t + 1]]; ++j) {
      ++h[vertices_[j]];
    }
  });
  for (size_t v = 0; v < num_vertices; ++v) {
    uint64_t running = containing_starts_[v];
    for (size_t t = 0; t < tasks; ++t) {
      const uint64_t count = hist[t][v];
      hist[t][v] = running;  // becomes range t's cursor for vertex v
      running += count;
    }
    containing_starts_[v + 1] = running;
  }
  ParallelFor(pool, 0, tasks, [&](size_t t) {
    auto& cursor = hist[t];
    for (size_t i = bounds[t]; i < bounds[t + 1]; ++i) {
      for (uint64_t j = vertex_starts_[i]; j < vertex_starts_[i + 1]; ++j) {
        containing_[cursor[vertices_[j]]++] = static_cast<uint32_t>(i);
      }
    }
  });
}

size_t RrSketchPool::SizeBytes() const {
  return sizeof(RrSketchPool) +
         roots_.capacity() * sizeof(VertexId) +
         vertex_starts_.capacity() * sizeof(uint64_t) +
         vertices_.capacity() * sizeof(VertexId) +
         offsets_.capacity() * sizeof(uint32_t) +
         edge_starts_.capacity() * sizeof(uint64_t) +
         edges_.capacity() * sizeof(RRLocalEdge) +
         containing_starts_.capacity() * sizeof(uint64_t) +
         containing_.capacity() * sizeof(uint32_t);
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
