#include "querydb/engine.h"

namespace tripriv {

Result<QueryAnswer> ExecuteQuery(const DataTable& table,
                                 const StatQuery& query) {
  TRIPRIV_ASSIGN_OR_RETURN(auto rows, query.where.MatchingRows(table));
  return AggregateRows(table, query, rows);
}

Result<QueryAnswer> AggregateRows(const DataTable& table, const StatQuery& query,
                                  const std::vector<size_t>& rows) {
  QueryAnswer answer;
  answer.query_set_size = rows.size();
  if (query.fn == AggregateFn::kCount) {
    answer.value = static_cast<double>(rows.size());
    return answer;
  }
  if (query.attribute.empty()) {
    return Status::InvalidArgument("aggregate needs an attribute");
  }
  TRIPRIV_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(query.attribute));
  // One pass in row order; min/max keep the first extreme, as
  // std::min_element / std::max_element do.
  size_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  for (size_t r : rows) {
    const Value& v = table.at(r, col);
    if (v.is_null()) continue;  // nulls are excluded from aggregates
    if (!v.is_numeric()) {
      return Status::InvalidArgument("attribute '" + query.attribute +
                                     "' is not numeric");
    }
    const double x = v.ToDouble();
    sum += x;
    if (count == 0 || x < min) min = x;
    if (count == 0 || max < x) max = x;
    ++count;
  }
  switch (query.fn) {
    case AggregateFn::kSum:
      answer.value = sum;
      return answer;
    case AggregateFn::kAvg:
      if (count == 0) {
        return Status::FailedPrecondition("AVG over an empty selection");
      }
      answer.value = sum / static_cast<double>(count);
      return answer;
    case AggregateFn::kMin:
      if (count == 0) {
        return Status::FailedPrecondition("MIN over an empty selection");
      }
      answer.value = min;
      return answer;
    case AggregateFn::kMax:
      if (count == 0) {
        return Status::FailedPrecondition("MAX over an empty selection");
      }
      answer.value = max;
      return answer;
    case AggregateFn::kCount:
      break;  // handled above
  }
  return Status::Internal("unhandled aggregate");
}

Result<QueryAnswer> AggregateRows(const DataTable& table, const StatQuery& query,
                                  const std::vector<size_t>& rows,
                                  SimClock* clock, const Deadline& deadline) {
  TRIPRIV_CHECK(clock != nullptr);
  if (deadline.expired(*clock)) {
    return DeadlineExceededError("query evaluation (not started)");
  }
  const size_t scanned = table.num_rows();
  clock->Advance(scanned / kEvalRowsPerTick + 1);
  if (deadline.expired(*clock)) {
    return DeadlineExceededError("query evaluation over " +
                                 std::to_string(scanned) + " rows");
  }
  return AggregateRows(table, query, rows);
}

}  // namespace tripriv
