// Exact (unprotected) evaluation of statistical queries.

#pragma once

#include <vector>

#include "querydb/query.h"
#include "table/data_table.h"
#include "util/clock.h"

namespace tripriv {

/// Exact answer to a query plus the query-set size — the quantity
/// protection mechanisms key off.
struct QueryAnswer {
  double value = 0.0;
  size_t query_set_size = 0;
};

/// Evaluates `query` on `table`: MatchingRows, then AggregateRows. COUNT
/// needs no attribute; SUM/AVG/MIN/MAX need a numeric attribute. AVG/MIN/MAX
/// over an empty selection fail with FailedPrecondition; SUM and COUNT
/// return 0.
Result<QueryAnswer> ExecuteQuery(const DataTable& table, const StatQuery& query);

/// Aggregates `query` over `rows`, the query set of `query.where` on `table`
/// (ascending row indices). Touches only those rows.
Result<QueryAnswer> AggregateRows(const DataTable& table, const StatQuery& query,
                                  const std::vector<size_t>& rows);

/// Rows scanned per simulated tick in the deadline-aware overload's cost
/// model. A request-level Deadline therefore bounds how much table the
/// evaluator may touch before failing typed.
inline constexpr size_t kEvalRowsPerTick = 256;

/// Deadline-aware aggregation over a query set computed earlier: charges the
/// cost of the scan that produced it (one tick per started kEvalRowsPerTick
/// rows of `table`) to `clock`, then fails with kDeadlineExceeded — without
/// producing an answer — when `deadline` has passed. This is how a
/// QueryService request deadline propagates into query evaluation.
Result<QueryAnswer> AggregateRows(const DataTable& table, const StatQuery& query,
                                  const std::vector<size_t>& rows,
                                  SimClock* clock, const Deadline& deadline);

}  // namespace tripriv
