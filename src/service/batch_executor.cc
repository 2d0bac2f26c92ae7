#include "service/batch_executor.h"

#include <utility>

#include "util/thread_pool.h"

namespace tripriv {

BatchExecutor::BatchExecutor(QueryService* service, ThreadPool* pool)
    : service_(service), pool_(pool) {
  TRIPRIV_CHECK(service != nullptr);
}

std::vector<ServiceAnswer> BatchExecutor::ExecuteQueryBatch(
    const std::vector<StatQuery>& queries) {
  return ExecuteQueryBatch(queries, {});
}

std::vector<ServiceAnswer> BatchExecutor::ExecuteQueryBatch(
    const std::vector<StatQuery>& queries,
    const std::vector<uint8_t>& classes) {
  TRIPRIV_CHECK(classes.empty() || classes.size() == queries.size());
  ++stats_.stat_batches;
  stats_.stat_queries += queries.size();
  if (service_->instruments() != nullptr && !queries.empty()) {
    service_->instruments()->OnStatBatch(queries.size());
  }

  // Parallel stage: Prepare is const and touches no mutable service state;
  // each item writes only its own slot.
  std::vector<PreparedQuery> prepared(queries.size());
  const QueryService* service = service_;
  auto prepare_one = [service, &queries, &prepared](size_t i) {
    prepared[i] = service->Prepare(queries[i]);
  };
  if (pool_ == nullptr || pool_->num_threads() <= 1 || queries.size() <= 1) {
    for (size_t i = 0; i < queries.size(); ++i) prepare_one(i);
  } else {
    pool_->ParallelFor(queries.size(),
                       [&prepare_one](size_t, size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) prepare_one(i);
                       });
  }

  // Serial stage, in batch order: the stateful serving ladder. Query ids,
  // audit state, WAL bytes, and fault draws evolve exactly as a serial
  // Submit loop would evolve them.
  std::vector<ServiceAnswer> answers;
  answers.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    // Class tags ride the serial stage only (metrics attribution is
    // stateful); SubmitPrepared resets the tag after each request.
    if (!classes.empty()) service_->set_request_class(classes[i]);
    answers.push_back(
        service_->SubmitPrepared(queries[i], std::move(prepared[i])));
  }
  return answers;
}

std::vector<Result<std::vector<uint8_t>>> BatchExecutor::ExecutePirBatch(
    const std::vector<size_t>& indices, const Deadline& deadline) {
  ++stats_.pir_batches;
  stats_.pir_reads += indices.size();
  return service_->PirReadBatch(indices, deadline, pool_);
}

}  // namespace tripriv
