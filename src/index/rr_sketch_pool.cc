#include "src/index/rr_sketch_pool.h"

#include <algorithm>
#include <ranges>
#include <utility>

#include "src/util/check.h"

namespace pitex {

void RrSketchPool::CopySketch(size_t i, const RRView& rr) {
  PITEX_DCHECK(rr.offsets.size() == rr.vertices.size() + 1);
  const uint32_t b = body_starts_[i];
  if (b == body_starts_[i + 1]) {
    // Implicit singleton: View() rebuilds it from the root alone.
    PITEX_DCHECK(rr.vertices.size() == 1 && rr.vertices[0] == rr.root);
    return;
  }
  const auto block = body_.begin() + b;
  std::copy(rr.offsets.begin(), rr.offsets.end(),
            std::copy(rr.vertices.begin(), rr.vertices.end(), block));
  std::copy(rr.edges.begin(), rr.edges.end(),
            edges_.begin() + edge_starts_[i]);
}

void RrSketchPool::Append(const RRView& sketch) {
  if (body_starts_.empty()) {
    body_starts_.push_back(0);
    edge_starts_.push_back(0);
  }
  roots_.push_back(sketch.root);
  if (BodyLength(sketch.vertices.size(), sketch.edges.size()) != 0) {
    body_.insert(body_.end(), sketch.vertices.begin(), sketch.vertices.end());
    body_.insert(body_.end(), sketch.offsets.begin(), sketch.offsets.end());
  }
  edges_.insert(edges_.end(), sketch.edges.begin(), sketch.edges.end());
  PITEX_CHECK_MSG(body_.size() <= UINT32_MAX && edges_.size() <= UINT32_MAX,
                  "sketch pool exceeds 32-bit directories");
  body_starts_.push_back(static_cast<uint32_t>(body_.size()));
  edge_starts_.push_back(static_cast<uint32_t>(edges_.size()));
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

  out.Layout(s, [&](size_t i) {
    const auto [a, slot] = where[i];
    // located == s plus this round-trip rules out duplicate samples
    // silently shadowing a missing one (O(s), negligible vs the copy).
    PITEX_CHECK_MSG(arenas[a].sample_index(slot) == i,
                    "duplicate arena sample index");
    return Shape{arenas[a].root(slot), arenas[a].sketch_vertices(slot),
                 arenas[a].sketch_edges(slot)};
  });

  // Pass 2: copy each sketch's segments once, straight arena -> pool.
  const auto copy_one = [&](size_t i) {
    const auto [a, slot] = where[i];
    out.CopySketch(i, arenas[a].View(slot));
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
  // The longest body block holds the most vertices; with no block at
  // all, every sketch is a singleton.
  uint32_t longest = 0;
  for (size_t i = 0; i < s; ++i) {
    longest = std::max(longest, body_starts_[i + 1] - body_starts_[i]);
  }
  max_sketch_vertices_ = longest > 0 ? (longest - 1) / 2 : (s > 0 ? 1 : 0);
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

  // Parallel variant: contiguous sketch ranges balanced by volume (body
  // entries plus one per sketch, which tracks vertex count and is
  // monotone in i). Each range histograms its vertices; a serial prefix
  // over (range, vertex) turns the histograms into per-range write
  // cursors, so range r fills its sketches (ascending ids) into the
  // slice after every earlier range's entries — per-vertex order is
  // still ascending sketch id, bit-identical to the serial fill.
  // Transient memory is tasks * |V| counters (tasks is capped at 8).
  const auto volume = [this](size_t i) {
    return uint64_t{body_starts_[i]} + i;
  };
  std::vector<size_t> bounds(tasks + 1, s);
  bounds[0] = 0;
  for (size_t t = 1; t < tasks; ++t) {
    bounds[t] = *std::ranges::lower_bound(std::views::iota(size_t{0}, s + 1),
                                          volume(s) * t / tasks, {}, volume);
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
         (roots_.capacity() + body_starts_.capacity() + body_.capacity() +
          edge_starts_.capacity() + containing_starts_.capacity() +
          containing_.capacity()) *
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
