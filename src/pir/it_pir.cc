#include "pir/it_pir.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "pir/xor_kernel.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

/// Batches below this many selected-record bytes (selections x records x
/// record size) stay serial: the fork/join handoff costs more than the
/// kernel saves.
constexpr size_t kMinParallelAnswerBytes = 1 << 15;

/// Layout bytes one chunk of a pass spans: a third of a 48 KiB L1d, so the
/// chunk stays resident while every selection of the tile runs over it.
constexpr size_t kChunkBytes = 16 << 10;

/// The one record width (in words, plain layout) the kernel compiles with
/// a fixed-size accumulator: the 44-byte masked census records the
/// pir_serve benchmark workload serves. Against the runtime-width loop it
/// cut that workload's op p50 from 15.6 to 11.8 ms (ten alternating 20 s
/// pairs on a 4-vCPU host). Every other width runs the runtime-width loop.
constexpr size_t kServedRecordWords = 6;

/// A pass cuts each replica into at most this many record ranges (tiles),
/// so even a one-replica batch offers work to every worker of a small pool.
constexpr size_t kMaxRangesPerReplica = 8;

/// Bit i of the returned word is selection bit 64 * w + i; bytes past the
/// end of the bitmap read as zero. Requires 8 * w < bits.size().
uint64_t SelectionWord(const std::vector<uint8_t>& bits, size_t w) {
  const size_t at = 8 * w;
  uint64_t word = 0;
  if (std::endian::native == std::endian::little && at + 8 <= bits.size()) {
    std::memcpy(&word, bits.data() + at, 8);
    return word;
  }
  const size_t take = std::min<size_t>(8, bits.size() - at);
  for (size_t k = 0; k < take; ++k) {
    word |= static_cast<uint64_t>(bits[at + k]) << (8 * k);
  }
  return word;
}

/// XORs one record into an accumulator. kWords > 0 fixes the width at
/// compile time, which keeps the accumulator in registers; kWords = 0 reads
/// it at run time.
template <size_t kWords>
inline void XorWords(uint64_t* acc, const uint64_t* src, size_t words) {
  if constexpr (kWords > 0) {
    for (size_t k = 0; k < kWords; ++k) acc[k] ^= src[k];
  } else {
    for (size_t k = 0; k < words; ++k) acc[k] ^= src[k];
  }
}

/// What a tile pass needs of a replica's layout (see XorPirServer).
struct LayoutView {
  const uint64_t* base = nullptr;
  size_t slot_words = 0;
  size_t num_records = 0;
  size_t chunk = 0;  ///< records per chunk, a multiple of 64
};

/// The kernel: for each chunk of [begin, end), every selection runs over
/// the chunk before the next chunk is touched. Selection words are walked
/// by set bit, so clear stretches cost nothing. Plain layout: one XOR per
/// selected record. Parity layout: one XOR per pair with any bit set,
/// reading slot 3p + code - 1 for the pair's two-bit code (1 even, 2 odd,
/// 3 both). Bits at or past num_records are ignored. kWords > 0 serves
/// only the plain layout, whose slot spacing is the record's width.
template <size_t kWords, bool kParity>
void PassTile(const LayoutView& layout, size_t words,
              const std::vector<uint8_t>* const* selections, size_t count,
              size_t begin, size_t end, uint64_t* accs) {
  static_assert(kWords == 0 || !kParity);
  const size_t width = kWords > 0 ? kWords : words;
  const size_t slot_words = kWords > 0 ? kWords : layout.slot_words;
  const size_t last_word = (layout.num_records - 1) / 64;
  const uint64_t last_mask =
      layout.num_records % 64 == 0
          ? ~uint64_t{0}
          : (uint64_t{1} << (layout.num_records % 64)) - 1;
  for (size_t chunk = begin; chunk < end; chunk += layout.chunk) {
    const size_t w_begin = chunk / 64;
    const size_t w_end = (std::min(chunk + layout.chunk, end) + 63) / 64;
    for (size_t s = 0; s < count; ++s) {
      const std::vector<uint8_t>& selection = *selections[s];
      uint64_t* out = accs + s * width;
      uint64_t local[kWords > 0 ? kWords : 1];
      uint64_t* acc = out;
      if constexpr (kWords > 0) {
        std::memcpy(local, out, sizeof(local));
        acc = local;
      }
      for (size_t w = w_begin; w < w_end; ++w) {
        uint64_t bits = SelectionWord(selection, w);
        if (w == last_word) bits &= last_mask;
        if constexpr (!kParity) {
          while (bits != 0) {
            const size_t i = 64 * w + std::countr_zero(bits);
            bits &= bits - 1;
            XorWords<kWords>(acc, layout.base + i * slot_words, words);
          }
        } else {
          uint64_t pairs = (bits | (bits >> 1)) & 0x5555555555555555ull;
          while (pairs != 0) {
            const unsigned b = static_cast<unsigned>(std::countr_zero(pairs));
            pairs &= pairs - 1;
            const size_t code = (bits >> b) & 3u;
            const size_t slot = 3 * (32 * w + b / 2) + code - 1;
            XorWords<kWords>(acc, layout.base + slot * slot_words, words);
          }
        }
      }
      if constexpr (kWords > 0) std::memcpy(out, local, sizeof(local));
    }
  }
}

}  // namespace

std::vector<uint8_t> RandomSelectionBits(size_t n, Rng* rng) {
  TRIPRIV_CHECK(rng != nullptr);
  std::vector<uint8_t> bits((n + 7) / 8);
  // One NextU64 fills 8 bitmap bytes; bytes are taken from the low end up
  // (a plain copy on little-endian hosts) so the layout is identical on
  // every platform.
  for (size_t i = 0; i < bits.size(); i += 8) {
    const uint64_t word = rng->NextU64();
    const size_t take = bits.size() - i < 8 ? bits.size() - i : 8;
    if (std::endian::native == std::endian::little && take == 8) {
      std::memcpy(bits.data() + i, &word, 8);
      continue;
    }
    for (size_t k = 0; k < take; ++k) {
      bits[i + k] = static_cast<uint8_t>(word >> (8 * k));
    }
  }
  // Zero the padding bits so observed queries are canonical.
  if (n % 8 != 0) bits.back() &= static_cast<uint8_t>((1u << (n % 8)) - 1u);
  return bits;
}

void FlipSelectionBit(std::vector<uint8_t>* bits, size_t i) {
  (*bits)[i / 8] ^= static_cast<uint8_t>(1u << (i % 8));
}

Result<XorPirServer> XorPirServer::Create(
    const std::vector<std::vector<uint8_t>>& records) {
  if (records.empty()) return Status::InvalidArgument("empty database");
  const size_t size = records[0].size();
  if (size == 0) return Status::InvalidArgument("records must be non-empty");
  for (const auto& r : records) {
    if (r.size() != size) {
      return Status::InvalidArgument("records must have equal length");
    }
  }
  XorPirServer server;
  server.num_records_ = records.size();
  server.record_size_ = size;
  server.slot_words_ = server.xor_words();
  server.storage_ = AlignedWordBuffer(records.size() * server.slot_words_);
  for (size_t i = 0; i < records.size(); ++i) {
    std::memcpy(server.storage_.bytes() + i * server.slot_words_ * 8,
                records[i].data(), size);
  }
  return server;
}

void XorPirServer::EnableObservationLog(size_t capacity) {
  TRIPRIV_CHECK(capacity >= 1);
  observe_capacity_ = capacity;
  observe_head_ = 0;
  observed_.clear();
}

void XorPirServer::ObserveQuery(const std::vector<uint8_t>& selection) {
  ++queries_answered_;
  // Eight bytes per popcount, then a byte tail.
  uint64_t selected = 0;
  size_t i = 0;
  for (; i + 8 <= selection.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, selection.data() + i, 8);
    selected += static_cast<uint64_t>(std::popcount(word));
  }
  for (; i < selection.size(); ++i) {
    selected += static_cast<uint64_t>(std::popcount(selection[i]));
  }
  bytes_xored_ += selected * record_size();
  if (observe_capacity_ == 0) return;
  if (observed_.size() < observe_capacity_) {
    observed_.push_back(selection);
    return;
  }
  observed_[observe_head_] = selection;
  observe_head_ = (observe_head_ + 1) % observe_capacity_;
}

const std::vector<uint8_t>& XorPirServer::observed_query(size_t i) const {
  TRIPRIV_CHECK_LT(i, observed_.size());
  if (observed_.size() < observe_capacity_) return observed_[i];
  return observed_[(observe_head_ + i) % observe_capacity_];
}

const std::vector<uint8_t>& XorPirServer::last_observed_query() const {
  TRIPRIV_CHECK(!observed_.empty());
  return observed_query(observed_.size() - 1);
}

void XorPirServer::Preprocess() {
  if (parity_) return;
  const size_t pairs = (num_records_ + 1) / 2;
  // Slots padded to whole cache lines so every slot starts 64-byte aligned.
  const size_t stride_words = (record_size_ + 63) / 64 * 8;
  AlignedWordBuffer parity(pairs * 3 * stride_words);
  for (size_t p = 0; p < pairs; ++p) {
    uint8_t* even_slot = parity.bytes() + 3 * p * stride_words * 8;
    uint8_t* odd_slot = even_slot + stride_words * 8;
    uint8_t* parity_slot = odd_slot + stride_words * 8;
    const std::span<const uint8_t> even = record_bytes(2 * p);
    std::memcpy(even_slot, even.data(), record_size_);
    std::memcpy(parity_slot, even.data(), record_size_);
    if (2 * p + 1 < num_records_) {
      // A lone trailing record leaves its odd slot zero, so its parity slot
      // degenerates to the record itself and the pass stays uniform.
      const std::span<const uint8_t> odd = record_bytes(2 * p + 1);
      std::memcpy(odd_slot, odd.data(), record_size_);
      XorBytesInto(parity_slot, odd.data(), record_size_);
    }
  }
  storage_ = std::move(parity);
  slot_words_ = stride_words;
  parity_ = true;
}

Status XorPirServer::CheckPass(
    const std::vector<const std::vector<uint8_t>*>& selections) const {
  if (!compute_fault_.ok()) return compute_fault_;
  for (const std::vector<uint8_t>* selection : selections) {
    TRIPRIV_CHECK(selection != nullptr);
    if (selection->size() != (num_records_ + 7) / 8) {
      return Status::InvalidArgument("selection bitmap has wrong length");
    }
  }
  return Status::OK();
}

void XorPirServer::AccumulateTile(
    const std::vector<uint8_t>* const* selections, size_t count, size_t begin,
    size_t end, uint64_t* accs) const {
  const size_t bytes_per_record = storage_.size_bytes() / num_records_;
  LayoutView layout;
  layout.base = storage_.data();
  layout.slot_words = slot_words_;
  layout.num_records = num_records_;
  layout.chunk =
      std::clamp<size_t>(kChunkBytes / bytes_per_record / 64, 1, 4) * 64;
  const size_t words = xor_words();
  // Called through a pointer, so no pass is inlined here: inlined, the
  // 6-word pass lost its register accumulator (pir_serve op p50 13 -> 19 ms).
  const auto pass = parity_ ? PassTile<0, true>
                    : words == kServedRecordWords
                        ? PassTile<kServedRecordWords, false>
                        : PassTile<0, false>;
  pass(layout, words, selections, count, begin, end, accs);
}

std::vector<ReplicaAnswers> XorPirServer::ComputeBatch(
    const std::vector<ReplicaSelections>& batch, ThreadPool* pool) {
  // A tile is one record range of one replica; its partial accumulators
  // (one per selection of the replica) start on a cache line of their own.
  struct Tile {
    size_t replica = 0;
    size_t begin = 0;
    size_t end = 0;
    size_t acc = 0;  ///< word offset of the tile's accumulators
  };
  std::vector<ReplicaAnswers> out;
  out.reserve(batch.size());
  std::vector<Tile> tiles;
  size_t acc_words = 0;
  uint64_t work = 0;
  for (size_t r = 0; r < batch.size(); ++r) {
    const XorPirServer* server = batch[r].server;
    TRIPRIV_CHECK(server != nullptr);
    const Status check = server->CheckPass(batch[r].selections);
    if (!check.ok()) {
      out.emplace_back(check);
      continue;
    }
    out.emplace_back(std::vector<std::vector<uint8_t>>());
    const size_t count = batch[r].selections.size();
    if (count == 0) continue;
    // Ranges are whole selection words and depend only on the replica,
    // never on the worker count.
    const size_t n = server->num_records_;
    const size_t range =
        ((n + kMaxRangesPerReplica - 1) / kMaxRangesPerReplica + 63) / 64 * 64;
    const size_t tile_words = (count * server->xor_words() + 7) / 8 * 8;
    for (size_t begin = 0; begin < n; begin += range) {
      tiles.push_back({r, begin, std::min(begin + range, n), acc_words});
      acc_words += tile_words;
    }
    work += count * n * server->record_size_;
  }

  AlignedWordBuffer partials(acc_words);
  auto run_tile = [&batch, &tiles, &partials](size_t t) {
    const Tile& tile = tiles[t];
    const ReplicaSelections& replica = batch[tile.replica];
    replica.server->AccumulateTile(replica.selections.data(),
                                   replica.selections.size(), tile.begin,
                                   tile.end, partials.data() + tile.acc);
  };
  if (pool == nullptr || work < kMinParallelAnswerBytes) {
    for (size_t t = 0; t < tiles.size(); ++t) run_tile(t);
  } else {
    pool->ParallelFor(tiles.size(),
                      [&run_tile](size_t, size_t begin, size_t end) {
                        for (size_t t = begin; t < end; ++t) run_tile(t);
                      });
  }

  // Merge each replica's tile partials in tile order into its first tile's
  // accumulators, then cut the answers to the logical record size.
  for (size_t t = 0; t < tiles.size();) {
    const Tile& first = tiles[t];
    const ReplicaSelections& replica = batch[first.replica];
    const size_t width = replica.server->xor_words();
    const size_t count = replica.selections.size();
    uint64_t* merged = partials.data() + first.acc;
    for (++t; t < tiles.size() && tiles[t].replica == first.replica; ++t) {
      const uint64_t* partial = partials.data() + tiles[t].acc;
      for (size_t k = 0; k < count * width; ++k) merged[k] ^= partial[k];
    }
    std::vector<std::vector<uint8_t>>& answers = *out[first.replica];
    answers.resize(count);
    for (size_t s = 0; s < count; ++s) {
      const auto* bytes = reinterpret_cast<const uint8_t*>(merged + s * width);
      answers[s].assign(bytes, bytes + replica.server->record_size_);
    }
  }
  return out;
}

Result<std::vector<uint8_t>> XorPirServer::ComputeAnswer(
    const std::vector<uint8_t>& selection, ThreadPool* pool) const {
  std::vector<ReplicaAnswers> answers =
      ComputeBatch({ReplicaSelections{this, {&selection}}}, pool);
  if (!answers[0].ok()) return answers[0].status();
  return std::move(answers[0]->front());
}

Result<std::vector<uint8_t>> XorPirServer::Answer(
    const std::vector<uint8_t>& selection, ThreadPool* pool) {
  TRIPRIV_ASSIGN_OR_RETURN(auto answer, ComputeAnswer(selection, pool));
  ObserveQuery(selection);
  ObservePass();
  return answer;
}

Result<std::vector<uint8_t>> TwoServerPirRead(XorPirServer* server_a,
                                              XorPirServer* server_b,
                                              size_t index, Rng* rng,
                                              PirStats* stats) {
  TRIPRIV_CHECK(server_a != nullptr && server_b != nullptr && rng != nullptr);
  const size_t n = server_a->num_records();
  if (server_b->num_records() != n ||
      server_a->record_size() != server_b->record_size()) {
    return Status::InvalidArgument("servers must hold identical replicas");
  }
  if (index >= n) return Status::OutOfRange("record index out of range");

  std::vector<uint8_t> query_a = RandomSelectionBits(n, rng);
  std::vector<uint8_t> query_b = query_a;
  FlipSelectionBit(&query_b, index);

  TRIPRIV_ASSIGN_OR_RETURN(auto answer_a, server_a->Answer(query_a));
  TRIPRIV_ASSIGN_OR_RETURN(auto answer_b, server_b->Answer(query_b));
  XorBytesInto(answer_a.data(), answer_b.data(), answer_a.size());
  if (stats != nullptr) {
    // Accumulate, never overwrite — see the PirStats contract in it_pir.h.
    stats->upload_bits += 2 * n;
    stats->download_bits += 2 * 8 * server_a->record_size();
  }
  return answer_a;
}

Result<std::vector<std::vector<uint8_t>>> TwoServerPirBatchRead(
    XorPirServer* server_a, XorPirServer* server_b,
    const std::vector<size_t>& indices, Rng* rng, ThreadPool* pool,
    PirStats* stats) {
  TRIPRIV_CHECK(server_a != nullptr && server_b != nullptr && rng != nullptr);
  const size_t n = server_a->num_records();
  if (server_b->num_records() != n ||
      server_a->record_size() != server_b->record_size()) {
    return Status::InvalidArgument("servers must hold identical replicas");
  }
  for (size_t index : indices) {
    if (index >= n) return Status::OutOfRange("record index out of range");
  }

  // Serial stage, in index order: draw the selection pairs and log the
  // observations — the exact rng draws and transcript a TwoServerPirRead
  // loop would produce, independent of the worker count.
  std::vector<std::vector<uint8_t>> queries_a(indices.size());
  std::vector<std::vector<uint8_t>> queries_b(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    queries_a[i] = RandomSelectionBits(n, rng);
    queries_b[i] = queries_a[i];
    FlipSelectionBit(&queries_b[i], indices[i]);
    server_a->ObserveQuery(queries_a[i]);
    server_b->ObserveQuery(queries_b[i]);
  }

  if (indices.empty()) return std::vector<std::vector<uint8_t>>();

  // Compute stage: one pass per server answers every selection. A replica
  // failure (refusing or diverging mid-batch) comes back as that replica's
  // typed result — never a process abort inside the pool — and fails every
  // slot, so slot 0 is the first failure in index order.
  std::vector<ReplicaSelections> batch(2);
  batch[0].server = server_a;
  batch[1].server = server_b;
  for (size_t i = 0; i < indices.size(); ++i) {
    batch[0].selections.push_back(&queries_a[i]);
    batch[1].selections.push_back(&queries_b[i]);
  }
  std::vector<ReplicaAnswers> passes = XorPirServer::ComputeBatch(batch, pool);
  if (passes[0].ok()) server_a->ObservePass();
  if (passes[1].ok()) server_b->ObservePass();
  for (const ReplicaAnswers& pass : passes) {
    if (!pass.ok()) {
      return Status(pass.status().code(),
                    "PIR batch slot 0 failed: " + pass.status().message());
    }
  }
  std::vector<std::vector<uint8_t>> answers = std::move(*passes[0]);
  for (size_t i = 0; i < indices.size(); ++i) {
    XorBytesInto(answers[i].data(), (*passes[1])[i].data(), answers[i].size());
  }
  if (stats != nullptr) {
    stats->upload_bits += indices.size() * 2 * n;
    stats->download_bits += indices.size() * 2 * 8 * server_a->record_size();
  }
  return answers;
}

}  // namespace tripriv
