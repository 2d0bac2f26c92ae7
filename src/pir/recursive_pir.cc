#include "pir/recursive_pir.h"

#include <algorithm>
#include <cmath>

#include "pir/xor_kernel.h"

namespace tripriv {
namespace {

bool GetBit(const std::vector<uint8_t>& bits, size_t i) {
  return (bits[i / 8] >> (i % 8)) & 1u;
}

/// ORs bits [0, count) of the packed bitmap `src` into `*dst` starting at
/// bit `at`, a byte at a time. Bits of `src` past `count` are dropped, so
/// nothing lands at or past bit at + count.
void OrBitsAt(const std::vector<uint8_t>& src, size_t count, size_t at,
              std::vector<uint8_t>* dst) {
  uint8_t* out = dst->data() + at / 8;
  const unsigned shift = at % 8;
  for (size_t j = 0; 8 * j < count; ++j) {
    uint8_t byte = src[j];
    if (count - 8 * j < 8) {
      byte &= static_cast<uint8_t>((1u << (count - 8 * j)) - 1u);
    }
    out[j] |= static_cast<uint8_t>(byte << shift);
    if (shift != 0 && (byte >> (8 - shift)) != 0) {
      out[j + 1] |= static_cast<uint8_t>(byte >> (8 - shift));
    }
  }
}

/// side^d >= n without overflow: the multiply only runs while the product
/// stays <= n, and a factor that would push past n returns early.
bool PowAtLeast(size_t side, size_t d, size_t n) {
  size_t acc = 1;
  for (size_t k = 0; k < d; ++k) {
    if (acc > n / side) return true;
    acc *= side;
  }
  return acc >= n;
}

/// Axis strides of the hypercube layout: stride[d-1] = 1, axis 0 outermost.
std::vector<size_t> Strides(const HypercubeGeometry& g) {
  std::vector<size_t> stride(g.d, 1);
  for (size_t k = g.d; k-- > 1;) stride[k - 1] = stride[k] * g.side;
  return stride;
}

/// Depth-first walk of the product of per-axis set-coordinate lists,
/// emitting each selected cell below n. Coordinate lists are ascending and
/// deeper axes only add to the cell index, so a cell >= n prunes the rest
/// of its axis level — overhang cells are never even visited. The
/// innermost axis (stride 1) is ORed in as its whole bitmap, cut at n.
struct ProductExpander {
  const std::vector<std::vector<size_t>>& set;
  const std::vector<size_t>& stride;
  const std::vector<uint8_t>& inner;  ///< innermost axis bitmap
  size_t side;
  size_t n;
  std::vector<uint8_t>* flat;
  uint64_t emitted = 0;

  void Walk(size_t axis, size_t base) {
    if (axis + 1 == set.size()) {
      const size_t count = std::min(side, n - base);
      OrBitsAt(inner, count, base, flat);
      const std::vector<size_t>& coords = set[axis];
      emitted += static_cast<uint64_t>(
          std::lower_bound(coords.begin(), coords.end(), count) -
          coords.begin());
      return;
    }
    for (size_t c : set[axis]) {
      const size_t cell = base + c * stride[axis];
      if (cell >= n) break;
      Walk(axis + 1, cell);
    }
  }
};

}  // namespace

Result<HypercubeGeometry> HypercubeGeometry::Balanced(size_t n, size_t d) {
  if (n < 1) return Status::InvalidArgument("hypercube needs >= 1 record");
  if (d < 1 || d > 8) {
    return Status::InvalidArgument("hypercube dimension must be in [1, 8]");
  }
  size_t side = static_cast<size_t>(
      std::pow(static_cast<double>(n), 1.0 / static_cast<double>(d)));
  if (side < 1) side = 1;
  // The float root can land one off in either direction; fix up exactly.
  while (!PowAtLeast(side, d, n)) ++side;
  while (side > 1 && PowAtLeast(side - 1, d, n)) --side;
  HypercubeGeometry g;
  g.n = n;
  g.side = side;
  g.d = d;
  return g;
}

std::vector<size_t> HypercubeGeometry::Coordinates(size_t i) const {
  std::vector<size_t> coords(d);
  for (size_t k = d; k-- > 0;) {
    coords[k] = i % side;
    i /= side;
  }
  return coords;
}

std::vector<std::vector<uint8_t>> ExpandAxisSelections(
    uint64_t seed, const HypercubeGeometry& g) {
  // A fresh generator per seed: expansion depends on nothing but the 64
  // bits shipped, so client and replica derive byte-identical bitmaps.
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> axes(g.d);
  for (size_t k = 0; k < g.d; ++k) {
    axes[k] = RandomSelectionBits(g.side, &rng);
  }
  return axes;
}

uint64_t ExpandProductSelection(
    const std::vector<std::vector<uint8_t>>& axis_bits,
    const HypercubeGeometry& g, std::vector<uint8_t>* flat) {
  TRIPRIV_CHECK(flat != nullptr);
  TRIPRIV_CHECK(axis_bits.size() == g.d);
  // Ascending set-coordinate lists per axis: the walk touches only selected
  // cells (about n / 2^d of them), not all side^d.
  std::vector<std::vector<size_t>> set(g.d);
  for (size_t k = 0; k < g.d; ++k) {
    TRIPRIV_CHECK(axis_bits[k].size() == (g.side + 7) / 8);
    for (size_t c = 0; c < g.side; ++c) {
      if (GetBit(axis_bits[k], c)) set[k].push_back(c);
    }
  }
  flat->assign((g.n + 7) / 8, 0);
  const std::vector<size_t> stride = Strides(g);
  ProductExpander expander{set, stride, axis_bits.back(), g.side, g.n, flat};
  expander.Walk(0, 0);
  return expander.emitted;
}

PirSessionRegistry::Session* PirSessionRegistry::Establish(
    uint8_t tenant_class, const HypercubeGeometry& geometry, uint64_t epoch) {
  Session& s = sessions_[tenant_class];
  s.tenant_class = tenant_class;
  s.geometry = geometry;
  s.epoch = epoch;
  return &s;
}

PirSessionRegistry::Session* PirSessionRegistry::Find(uint8_t tenant_class) {
  auto it = sessions_.find(tenant_class);
  return it == sessions_.end() ? nullptr : &it->second;
}

const PirSessionRegistry::Session* PirSessionRegistry::Find(
    uint8_t tenant_class) const {
  auto it = sessions_.find(tenant_class);
  return it == sessions_.end() ? nullptr : &it->second;
}

void PirSessionRegistry::InvalidateBefore(uint64_t epoch) {
  for (auto& [cls, s] : sessions_) {
    if (s.epoch >= epoch) continue;
    s.geometry = HypercubeGeometry{};
    s.axis_scratch.clear();
    // Actually release the flat scratch: it is sized for the stale epoch's
    // database and may be the largest allocation a session holds.
    std::vector<uint8_t>().swap(s.flat_scratch);
  }
}

uint64_t PirSessionRegistry::total_reads() const {
  uint64_t total = 0;
  for (const auto& [cls, s] : sessions_) total += s.reads;
  return total;
}

uint64_t PirSessionRegistry::total_upload_bits() const {
  uint64_t total = 0;
  for (const auto& [cls, s] : sessions_) total += s.upload_bits;
  return total;
}

uint64_t PirSessionRegistry::total_expanded_cells() const {
  uint64_t total = 0;
  for (const auto& [cls, s] : sessions_) total += s.expanded_cells;
  return total;
}

Result<std::vector<HypercubeQuery>> BuildHypercubeQueries(
    const HypercubeGeometry& g, size_t index, Rng* rng) {
  TRIPRIV_CHECK(rng != nullptr);
  if (g.n == 0 || g.d == 0) {
    return Status::InvalidArgument("uninitialized hypercube geometry");
  }
  if (index >= g.n) return Status::OutOfRange("record index out of range");
  // One draw per read — the entire base selection expands from this seed.
  const uint64_t seed = rng->NextU64();
  const std::vector<std::vector<uint8_t>> base = ExpandAxisSelections(seed, g);
  const std::vector<size_t> coords = g.Coordinates(index);
  std::vector<HypercubeQuery> queries(g.num_servers());
  // Only the all-unflipped replica may hold the seed (see recursive_pir.h):
  // seed plus any flipped axis would difference out the target coordinate.
  queries[0].seed_only = true;
  queries[0].seed = seed;
  for (size_t s = 1; s < queries.size(); ++s) {
    queries[s].axis_bits = base;
    for (size_t k = 0; k < g.d; ++k) {
      if ((s >> k) & 1u) {
        FlipSelectionBit(&queries[s].axis_bits[k], coords[k]);
      }
    }
  }
  return queries;
}

Status ExpandHypercubeQuery(const HypercubeQuery& query,
                            const HypercubeGeometry& g,
                            PirSessionRegistry::Session* session,
                            std::vector<uint8_t>* flat) {
  TRIPRIV_CHECK(flat != nullptr);
  std::vector<std::vector<uint8_t>> local_axes;
  const std::vector<std::vector<uint8_t>>* axes = nullptr;
  if (query.seed_only) {
    auto& dst = session != nullptr ? session->axis_scratch : local_axes;
    dst = ExpandAxisSelections(query.seed, g);
    axes = &dst;
  } else {
    if (query.axis_bits.size() != g.d) {
      return Status::InvalidArgument("query has wrong axis count");
    }
    const size_t bytes = (g.side + 7) / 8;
    const uint8_t pad_mask =
        g.side % 8 == 0 ? 0
                        : static_cast<uint8_t>(~((1u << (g.side % 8)) - 1u));
    for (const auto& axis : query.axis_bits) {
      if (axis.size() != bytes) {
        return Status::InvalidArgument("axis bitmap has wrong length");
      }
      if (pad_mask != 0 && (axis.back() & pad_mask) != 0) {
        return Status::InvalidArgument("axis bitmap has non-canonical padding");
      }
    }
    axes = &query.axis_bits;
  }
  const uint64_t cells = ExpandProductSelection(*axes, g, flat);
  if (session != nullptr) session->expanded_cells += cells;
  return Status::OK();
}

Result<std::vector<uint8_t>> AnswerHypercubeQuery(
    XorPirServer* server, const HypercubeQuery& query,
    const HypercubeGeometry& g, ThreadPool* pool,
    PirSessionRegistry::Session* session) {
  TRIPRIV_CHECK(server != nullptr);
  if (server->num_records() != g.n) {
    return Status::InvalidArgument("server does not replicate the geometry");
  }
  std::vector<uint8_t> local_flat;
  std::vector<uint8_t>* flat =
      session != nullptr ? &session->flat_scratch : &local_flat;
  TRIPRIV_RETURN_IF_ERROR(ExpandHypercubeQuery(query, g, session, flat));
  return server->Answer(*flat, pool);
}

Result<std::vector<uint8_t>> RecursivePirRead(
    const std::vector<XorPirServer*>& servers, const HypercubeGeometry& g,
    size_t index, Rng* rng, ThreadPool* pool, PirStats* stats,
    PirSessionRegistry::Session* session) {
  TRIPRIV_ASSIGN_OR_RETURN(
      auto answers,
      RecursivePirBatchRead(servers, g, {index}, rng, pool, stats, session));
  return std::move(answers.front());
}

Result<std::vector<std::vector<uint8_t>>> RecursivePirBatchRead(
    const std::vector<XorPirServer*>& servers, const HypercubeGeometry& g,
    const std::vector<size_t>& indices, Rng* rng, ThreadPool* pool,
    PirStats* stats, PirSessionRegistry::Session* session) {
  TRIPRIV_CHECK(rng != nullptr);
  if (servers.size() != g.num_servers()) {
    return Status::InvalidArgument("recursive scheme needs 2^d replicas");
  }
  for (auto* s : servers) TRIPRIV_CHECK(s != nullptr);
  const size_t size = servers[0]->record_size();
  for (auto* s : servers) {
    if (s->num_records() != g.n || s->record_size() != size) {
      return Status::InvalidArgument("servers must hold identical replicas");
    }
    // A faulted replica fails the batch before any draw or observation.
    TRIPRIV_RETURN_IF_ERROR(s->injected_fault());
  }
  if (indices.empty()) return std::vector<std::vector<uint8_t>>();

  // One ComputeBatch entry per DISTINCT server: aliased replicas share it.
  const size_t replicas = servers.size();
  std::vector<XorPirServer*> distinct;
  std::vector<size_t> entry_of(replicas);
  for (size_t s = 0; s < replicas; ++s) {
    const auto it = std::find(distinct.begin(), distinct.end(), servers[s]);
    entry_of[s] = static_cast<size_t>(it - distinct.begin());
    if (it == distinct.end()) distinct.push_back(servers[s]);
  }

  // Selection k is item k / replicas aimed at replica k % replicas. They
  // run in groups whose flat selections fit the byte budget, so the batch
  // holds at most one group of them whatever its size and d.
  const size_t total = indices.size() * replicas;
  const size_t group = std::max<size_t>(
      1, kRecursiveBatchSelectionBytes / ((g.n + 7) / 8));
  std::vector<std::vector<uint8_t>> flats(std::min(group, total));
  // The session's flat scratch serves as the first slot and goes back to
  // the session after the batch, so its allocation outlives the batch.
  if (session != nullptr) flats[0].swap(session->flat_scratch);
  std::vector<HypercubeQuery> queries;
  std::vector<std::vector<uint8_t>> answers(indices.size(),
                                            std::vector<uint8_t>(size, 0));
  size_t upload = 0;
  for (size_t first = 0; first < total; first += group) {
    const size_t last = std::min(first + group, total);
    // Serial stage, in item order: build each read's queries (one rng
    // draw), expand every replica's flat selection and log it — exactly
    // the rng draws and observation transcript of a RecursivePirRead loop.
    std::vector<ReplicaSelections> batch(distinct.size());
    for (size_t e = 0; e < distinct.size(); ++e) batch[e].server = distinct[e];
    for (size_t k = first; k < last; ++k) {
      const size_t s = k % replicas;
      if (s == 0) {
        TRIPRIV_ASSIGN_OR_RETURN(
            queries, BuildHypercubeQueries(g, indices[k / replicas], rng));
      }
      upload += queries[s].upload_bits(g);
      std::vector<uint8_t>* flat = &flats[k - first];
      TRIPRIV_RETURN_IF_ERROR(
          ExpandHypercubeQuery(queries[s], g, session, flat));
      servers[s]->ObserveQuery(*flat);
      batch[entry_of[s]].selections.push_back(flat);
    }

    // Compute stage: one pass per distinct server answers every selection
    // of the group aimed at it, tiled across `pool`.
    std::vector<ReplicaAnswers> passes =
        XorPirServer::ComputeBatch(batch, pool);
    for (size_t e = 0; e < batch.size(); ++e) {
      if (passes[e].ok() && !batch[e].selections.empty()) {
        distinct[e]->ObservePass();
      }
    }
    for (const ReplicaAnswers& pass : passes) {
      if (!pass.ok()) return pass.status();
    }

    // Each read XORs its 2^d answers. Every entry's selections were
    // appended in order of k, so a cursor per entry walks its answers in
    // the same order.
    std::vector<size_t> cursor(batch.size(), 0);
    for (size_t k = first; k < last; ++k) {
      const size_t e = entry_of[k % replicas];
      const std::vector<uint8_t>& part = (*passes[e])[cursor[e]++];
      XorBytesInto(answers[k / replicas].data(), part.data(), size);
    }
  }
  if (stats != nullptr) {
    // Accumulate, never overwrite — see the PirStats contract in it_pir.h.
    stats->upload_bits += upload;
    stats->download_bits += indices.size() * replicas * 8 * size;
  }
  if (session != nullptr) {
    session->flat_scratch.swap(flats[0]);
    session->reads += indices.size();
    session->upload_bits += upload;
  }
  return answers;
}

}  // namespace tripriv
