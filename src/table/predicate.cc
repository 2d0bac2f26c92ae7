#include "table/predicate.h"

#include <optional>

namespace tripriv {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Predicate Predicate::True() { return Predicate(); }

Predicate Predicate::Compare(std::string attribute, CompareOp op, Value literal) {
  Predicate p;
  p.kind_ = Kind::kCompare;
  p.attribute_ = std::move(attribute);
  p.op_ = op;
  p.literal_ = std::move(literal);
  return p;
}

Predicate Predicate::And(Predicate lhs, Predicate rhs) {
  Predicate p;
  p.kind_ = Kind::kAnd;
  p.lhs_ = std::make_shared<const Predicate>(std::move(lhs));
  p.rhs_ = std::make_shared<const Predicate>(std::move(rhs));
  return p;
}

Predicate Predicate::Or(Predicate lhs, Predicate rhs) {
  Predicate p;
  p.kind_ = Kind::kOr;
  p.lhs_ = std::make_shared<const Predicate>(std::move(lhs));
  p.rhs_ = std::make_shared<const Predicate>(std::move(rhs));
  return p;
}

Predicate Predicate::Not(Predicate inner) {
  Predicate p;
  p.kind_ = Kind::kNot;
  p.lhs_ = std::make_shared<const Predicate>(std::move(inner));
  return p;
}

namespace {

/// Comparison under SQL null semantics; nullopt when the operands are
/// ill-typed (a number against a string).
std::optional<bool> CompareCell(const Value& cell, CompareOp op,
                                const Value& literal) {
  if (cell.is_null()) {
    // Suppressed cells match nothing except explicit inequality to a value.
    return op == CompareOp::kNe;
  }
  if (cell.is_numeric() && literal.is_numeric()) {
    const double a = cell.ToDouble();
    const double b = literal.ToDouble();
    switch (op) {
      case CompareOp::kEq:
        return a == b;
      case CompareOp::kNe:
        return a != b;
      case CompareOp::kLt:
        return a < b;
      case CompareOp::kLe:
        return a <= b;
      case CompareOp::kGt:
        return a > b;
      case CompareOp::kGe:
        return a >= b;
    }
  }
  if (cell.is_string() && literal.is_string()) {
    const int cmp = cell.AsString().compare(literal.AsString());
    switch (op) {
      case CompareOp::kEq:
        return cmp == 0;
      case CompareOp::kNe:
        return cmp != 0;
      case CompareOp::kLt:
        return cmp < 0;
      case CompareOp::kLe:
        return cmp <= 0;
      case CompareOp::kGt:
        return cmp > 0;
      case CompareOp::kGe:
        return cmp >= 0;
    }
  }
  return std::nullopt;
}

/// Neither operand may enter the message: the cell is record-level (and
/// echoing the literal would confirm what it was compared against).
Status TypeMismatch() {
  return Status::InvalidArgument("type mismatch in comparison");
}

}  // namespace

Result<bool> Predicate::Matches(const DataTable& table, size_t row) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCompare: {
      TRIPRIV_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(attribute_));
      const std::optional<bool> match =
          CompareCell(table.at(row, col), op_, literal_);
      if (!match) return TypeMismatch();
      return *match;
    }
    case Kind::kAnd: {
      TRIPRIV_ASSIGN_OR_RETURN(bool a, lhs_->Matches(table, row));
      if (!a) return false;
      return rhs_->Matches(table, row);
    }
    case Kind::kOr: {
      TRIPRIV_ASSIGN_OR_RETURN(bool a, lhs_->Matches(table, row));
      if (a) return true;
      return rhs_->Matches(table, row);
    }
    case Kind::kNot: {
      TRIPRIV_ASSIGN_OR_RETURN(bool a, lhs_->Matches(table, row));
      return !a;
    }
  }
  return Status::Internal("corrupt predicate kind");
}

/// A predicate compiled for one MatchingRows scan: the tree flattened in
/// pre-order (a node's left child is the next node), each comparison leaf
/// carrying its column once resolved. A leaf resolves the first time it is
/// evaluated, not up front, so an unknown attribute errors on exactly the
/// row where a per-row Matches would, and not at all behind a short circuit
/// or over an empty table.
class PredicateScan {
 public:
  PredicateScan(const Predicate& root, const DataTable& table) : table_(table) {
    Flatten(root);
  }

  Result<std::vector<size_t>> Run() {
    std::vector<size_t> out;
    for (size_t r = 0; r < table_.num_rows(); ++r) {
      const bool match = Eval(0, table_.row(r));
      if (!error_.ok()) return std::move(error_);
      if (match) out.push_back(r);
    }
    return out;
  }

 private:
  static constexpr size_t kUnresolved = static_cast<size_t>(-1);

  struct Node {
    const Predicate* predicate;
    size_t rhs = 0;            // pre-order index of the right child
    size_t col = kUnresolved;  // comparison leaves only
  };

  void Flatten(const Predicate& p) {
    const size_t self = nodes_.size();
    nodes_.push_back(Node{&p});
    if (p.lhs_) Flatten(*p.lhs_);
    if (p.rhs_) {
      nodes_[self].rhs = nodes_.size();
      Flatten(*p.rhs_);
    }
  }

  /// Evaluates node `i` on `row`. On failure sets error_ and returns false.
  bool Eval(size_t i, const std::vector<Value>& row) {
    Node& node = nodes_[i];
    const Predicate& p = *node.predicate;
    switch (p.kind_) {
      case Predicate::Kind::kTrue:
        return true;
      case Predicate::Kind::kCompare: {
        if (node.col == kUnresolved) {
          Result<size_t> col = table_.schema().IndexOf(p.attribute_);
          if (!col.ok()) {
            error_ = col.status();
            return false;
          }
          node.col = *col;
        }
        const std::optional<bool> match =
            CompareCell(row[node.col], p.op_, p.literal_);
        if (!match) error_ = TypeMismatch();
        return match.value_or(false);
      }
      // A failed child returns false, so only OR and NOT re-check error_.
      case Predicate::Kind::kAnd:
        return Eval(i + 1, row) && Eval(node.rhs, row);
      case Predicate::Kind::kOr:
        return Eval(i + 1, row) || (error_.ok() && Eval(node.rhs, row));
      case Predicate::Kind::kNot:
        return !Eval(i + 1, row) && error_.ok();
    }
    error_ = Status::Internal("corrupt predicate kind");
    return false;
  }

  const DataTable& table_;
  std::vector<Node> nodes_;
  Status error_;
};

Result<std::vector<size_t>> Predicate::MatchingRows(const DataTable& table) const {
  return PredicateScan(*this, table).Run();
}

void Predicate::CollectAttributes(std::vector<std::string>* out) const {
  switch (kind_) {
    case Kind::kTrue:
      return;
    case Kind::kCompare:
      out->push_back(attribute_);
      return;
    case Kind::kAnd:
    case Kind::kOr:
      lhs_->CollectAttributes(out);
      rhs_->CollectAttributes(out);
      return;
    case Kind::kNot:
      lhs_->CollectAttributes(out);
      return;
  }
}

std::vector<std::string> Predicate::ReferencedAttributes() const {
  std::vector<std::string> out;
  CollectAttributes(&out);
  return out;
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kCompare:
      return attribute_ + " " + CompareOpToString(op_) + " " +
             (literal_.is_string() ? "'" + literal_.AsString() + "'"
                                   : literal_.ToDisplayString());
    case Kind::kAnd:
      return "(" + lhs_->ToString() + " AND " + rhs_->ToString() + ")";
    case Kind::kOr:
      return "(" + lhs_->ToString() + " OR " + rhs_->ToString() + ")";
    case Kind::kNot:
      return "(NOT " + lhs_->ToString() + ")";
  }
  return "?";
}

}  // namespace tripriv
