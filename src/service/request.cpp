#include "service/request.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/error.h"
#include "common/strings.h"

namespace supremm::service {

using warehouse::AggKind;
using warehouse::AggSpec;

namespace {

// --- lexer -----------------------------------------------------------------

enum class TokKind : std::uint8_t { kIdent, kNumber, kString, kPunct, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;     // ident name, punct spelling, or raw number text
  std::string literal;  // unescaped string payload (kString)
  std::size_t pos = 0;  // byte offset, for error messages
};

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw common::ParseError("request:" + std::to_string(pos) + ": " + what);
}

bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool ident_char(char c) { return ident_start(c) || (c >= '0' && c <= '9'); }
bool number_start(char c) { return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.'; }

std::vector<Token> lex(std::string_view text) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++i;
      continue;
    }
    Token tok;
    tok.pos = i;
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < text.size() && ident_char(text[j])) ++j;
      tok.kind = TokKind::kIdent;
      tok.text = std::string(text.substr(i, j - i));
      i = j;
    } else if (number_start(c)) {
      // Greedy number atom; letters ride along so "-inf", "nan" (via ident
      // above), "1e-5" and "0x..." junk all land in parse_f64, which
      // rejects anything strtod does not fully consume.
      std::size_t j = i + 1;
      while (j < text.size() &&
             (ident_char(text[j]) || text[j] == '.' ||
              ((text[j] == '+' || text[j] == '-') &&
               (text[j - 1] == 'e' || text[j - 1] == 'E')))) {
        ++j;
      }
      tok.kind = TokKind::kNumber;
      tok.text = std::string(text.substr(i, j - i));
      i = j;
    } else if (c == '"') {
      std::string payload;
      std::size_t j = i + 1;
      for (;; ++j) {
        if (j >= text.size()) fail(i, "unterminated string literal");
        if (text[j] == '\\') {
          if (j + 1 >= text.size()) fail(i, "unterminated string literal");
          const char e = text[j + 1];
          if (e != '"' && e != '\\') fail(j, "unknown escape in string literal");
          payload.push_back(e);
          ++j;
        } else if (text[j] == '"') {
          break;
        } else {
          payload.push_back(text[j]);
        }
      }
      tok.kind = TokKind::kString;
      tok.literal = std::move(payload);
      i = j + 1;
    } else if (c == '(' || c == ')' || c == ',' || c == '=') {
      tok.kind = TokKind::kPunct;
      tok.text = std::string(1, c);
      ++i;
    } else if ((c == '>' || c == '<') && i + 1 < text.size() && text[i + 1] == '=') {
      tok.kind = TokKind::kPunct;
      tok.text = std::string(text.substr(i, 2));
      i += 2;
    } else {
      fail(i, std::string("unexpected character '") + c + "'");
    }
    out.push_back(std::move(tok));
  }
  Token end;
  end.kind = TokKind::kEnd;
  end.pos = text.size();
  out.push_back(std::move(end));
  return out;
}

// --- parser ----------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view text) : toks_(lex(text)) {}

  const Token& peek() const { return toks_[i_]; }
  const Token& next() { return toks_[i_++]; }

  bool at_ident(std::string_view word) const {
    return peek().kind == TokKind::kIdent && peek().text == word;
  }
  bool eat_ident(std::string_view word) {
    if (!at_ident(word)) return false;
    ++i_;
    return true;
  }
  std::string expect_ident(const char* what) {
    if (peek().kind != TokKind::kIdent) fail(peek().pos, std::string("expected ") + what);
    return next().text;
  }
  void expect_keyword(std::string_view word) {
    if (!eat_ident(word)) {
      fail(peek().pos, "expected '" + std::string(word) + "'");
    }
  }
  void expect_punct(std::string_view p) {
    if (peek().kind != TokKind::kPunct || peek().text != p) {
      fail(peek().pos, "expected '" + std::string(p) + "'");
    }
    ++i_;
  }
  bool eat_punct(std::string_view p) {
    if (peek().kind == TokKind::kPunct && peek().text == p) {
      ++i_;
      return true;
    }
    return false;
  }
  double expect_number() {
    const Token& t = peek();
    // "inf" / "nan" lex as idents; strtod accepts both spellings.
    if (t.kind != TokKind::kNumber && t.kind != TokKind::kIdent) {
      fail(t.pos, "expected a number");
    }
    // Not common::parse_f64: that treats strtod's ERANGE as malformed, but
    // predicate thresholds legitimately take denormal (underflow) and
    // overflow spellings — strtod still returns the correctly rounded
    // double, which is exactly what %.17g printing needs to round-trip.
    char buf[64];
    if (t.text.empty() || t.text.size() >= sizeof(buf)) {
      fail(t.pos, "malformed number '" + t.text + "'");
    }
    t.text.copy(buf, t.text.size());
    buf[t.text.size()] = '\0';
    char* end = nullptr;
    const double v = std::strtod(buf, &end);
    if (end != buf + t.text.size()) {
      fail(t.pos, "malformed number '" + t.text + "'");
    }
    ++i_;
    return v;
  }
  std::uint64_t expect_uint(const char* what) {
    const Token& t = peek();
    if (t.kind != TokKind::kNumber) fail(t.pos, std::string("expected ") + what);
    std::uint64_t v = 0;
    try {
      v = common::parse_u64(t.text);
    } catch (const common::ParseError&) {
      fail(t.pos, std::string("malformed ") + what + " '" + t.text + "'");
    }
    ++i_;
    return v;
  }
  std::string expect_string(const char* what) {
    if (peek().kind != TokKind::kString) {
      fail(peek().pos, std::string("expected a quoted ") + what);
    }
    return next().literal;
  }
  void expect_end() {
    if (peek().kind != TokKind::kEnd) {
      fail(peek().pos, "trailing input after request");
    }
  }

 private:
  std::vector<Token> toks_;
  std::size_t i_ = 0;
};

Term parse_term(Parser& p) {
  Term t;
  t.column = p.expect_ident("a column name");
  if (p.eat_punct("=")) {
    t.op = TermOp::kEq;
    t.value = p.expect_string("string literal");
  } else if (p.eat_punct(">=")) {
    t.op = TermOp::kGe;
    t.lo = p.expect_number();
  } else if (p.eat_punct("<=")) {
    t.op = TermOp::kLe;
    t.hi = p.expect_number();
  } else if (p.eat_ident("between")) {
    t.op = TermOp::kBetween;
    t.lo = p.expect_number();
    p.expect_keyword("and");
    t.hi = p.expect_number();
  } else {
    fail(p.peek().pos, "expected '=', '>=', '<=' or 'between' after column");
  }
  return t;
}

AggSpec parse_agg(Parser& p) {
  AggSpec a;
  const Token fn_tok = p.peek();
  const std::string fn = p.expect_ident("an aggregate function");
  if (fn == "sum") {
    a.kind = AggKind::kSum;
  } else if (fn == "mean") {
    a.kind = AggKind::kMean;
  } else if (fn == "wmean") {
    a.kind = AggKind::kWeightedMean;
  } else if (fn == "max") {
    a.kind = AggKind::kMax;
  } else if (fn == "min") {
    a.kind = AggKind::kMin;
  } else if (fn == "count") {
    a.kind = AggKind::kCount;
  } else {
    fail(fn_tok.pos, "unknown aggregate '" + fn + "'");
  }
  p.expect_punct("(");
  if (a.kind != AggKind::kCount) {
    a.column = p.expect_ident("a column name");
    if (a.kind == AggKind::kWeightedMean) {
      p.expect_punct(",");
      a.weight = p.expect_ident("a weight column name");
    }
  }
  p.expect_punct(")");
  if (p.eat_ident("as")) a.as = p.expect_ident("an output column name");
  return a;
}

constexpr std::size_t kMaxRequestThreads = 64;

std::size_t parse_threads(Parser& p) {
  const std::size_t pos = p.peek().pos;
  const std::uint64_t n = p.expect_uint("thread count");
  // 0 = hardware concurrency; results are identical for any setting.
  if (n > kMaxRequestThreads) fail(pos, "thread count beyond 64");
  return static_cast<std::size_t>(n);
}

Request parse_query(Parser& p) {
  Request req;
  req.kind = Request::Kind::kQuery;
  QuerySpec& q = req.query;
  q.table = p.expect_ident("a table name");
  if (p.eat_ident("where")) {
    q.where.push_back(parse_term(p));
    while (p.eat_ident("and")) q.where.push_back(parse_term(p));
  }
  if (p.eat_ident("group")) {
    q.group_by.push_back(p.expect_ident("a group column"));
    while (p.eat_punct(",")) q.group_by.push_back(p.expect_ident("a group column"));
  }
  p.expect_keyword("agg");
  q.aggs.push_back(parse_agg(p));
  while (p.eat_punct(",")) q.aggs.push_back(parse_agg(p));
  if (p.eat_ident("threads")) q.threads = parse_threads(p);
  p.expect_end();
  return req;
}

Request parse_report(Parser& p) {
  Request req;
  req.kind = Request::Kind::kReport;
  auto& spec = req.report;
  p.expect_keyword("jobs");
  p.expect_keyword("dimension");
  spec.dimension = p.expect_ident("a dimension name");
  p.expect_keyword("stats");
  spec.statistics.push_back(p.expect_ident("a statistic name"));
  while (p.eat_punct(",")) spec.statistics.push_back(p.expect_ident("a statistic name"));
  if (p.eat_ident("filter")) {
    spec.filter_dimension = p.expect_ident("a filter dimension");
    p.expect_punct("=");
    spec.filter_value = p.expect_string("filter value");
  }
  if (p.eat_ident("sort")) spec.sort_by = p.expect_ident("a statistic name");
  if (p.eat_ident("limit")) {
    spec.limit = static_cast<std::size_t>(p.expect_uint("row limit"));
  }
  if (p.eat_ident("threads")) spec.threads = parse_threads(p);
  p.expect_end();
  return req;
}

// --- printer ---------------------------------------------------------------

/// %.17g round-trips every finite double through strtod bit-exactly; the
/// specials get strtod's own spellings so parse(print(x)) is the identity
/// (up to NaN payload, which no comparison can observe).
std::string fmt_num(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  return common::strprintf("%.17g", v);
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void print_term(std::string& out, const Term& t) {
  out += t.column;
  switch (t.op) {
    case TermOp::kEq:
      out += " = " + quote(t.value);
      break;
    case TermOp::kGe:
      out += " >= " + fmt_num(t.lo);
      break;
    case TermOp::kLe:
      out += " <= " + fmt_num(t.hi);
      break;
    case TermOp::kBetween:
      out += " between " + fmt_num(t.lo) + " and " + fmt_num(t.hi);
      break;
  }
}

void print_agg(std::string& out, const AggSpec& a) {
  switch (a.kind) {
    case AggKind::kSum:
      out += "sum(" + a.column + ")";
      break;
    case AggKind::kMean:
      out += "mean(" + a.column + ")";
      break;
    case AggKind::kWeightedMean:
      out += "wmean(" + a.column + "," + a.weight + ")";
      break;
    case AggKind::kMax:
      out += "max(" + a.column + ")";
      break;
    case AggKind::kMin:
      out += "min(" + a.column + ")";
      break;
    case AggKind::kCount:
      out += "count()";
      break;
  }
  if (!a.as.empty()) out += " as " + a.as;
}

}  // namespace

Request parse_request(std::string_view text) {
  Parser p(text);
  if (p.eat_ident("query")) return parse_query(p);
  if (p.eat_ident("report")) return parse_report(p);
  fail(p.peek().pos, "expected 'query' or 'report'");
}

std::string print_request(const Request& req) {
  std::string out;
  if (req.kind == Request::Kind::kQuery) {
    const QuerySpec& q = req.query;
    out = "query " + q.table;
    for (std::size_t i = 0; i < q.where.size(); ++i) {
      out += i == 0 ? " where " : " and ";
      print_term(out, q.where[i]);
    }
    for (std::size_t i = 0; i < q.group_by.size(); ++i) {
      out += i == 0 ? " group " : ",";
      out += q.group_by[i];
    }
    for (std::size_t i = 0; i < q.aggs.size(); ++i) {
      out += i == 0 ? " agg " : ",";
      print_agg(out, q.aggs[i]);
    }
    if (q.threads != 1) out += " threads " + std::to_string(q.threads);
    return out;
  }
  const auto& spec = req.report;
  out = "report jobs dimension " + spec.dimension;
  for (std::size_t i = 0; i < spec.statistics.size(); ++i) {
    out += i == 0 ? " stats " : ",";
    out += spec.statistics[i];
  }
  if (!spec.filter_dimension.empty()) {
    out += " filter " + spec.filter_dimension + " = " + quote(spec.filter_value);
  }
  if (!spec.sort_by.empty()) out += " sort " + spec.sort_by;
  if (spec.limit != 0) out += " limit " + std::to_string(spec.limit);
  if (spec.threads != 1) out += " threads " + std::to_string(spec.threads);
  return out;
}

std::string canonical_text(std::string_view text) {
  return print_request(parse_request(text));
}

warehouse::Query compile(const QuerySpec& spec, const warehouse::Table& table) {
  warehouse::Query q(table);
  if (!spec.where.empty()) {
    std::vector<warehouse::RowPredicate> preds;
    preds.reserve(spec.where.size());
    for (const Term& t : spec.where) {
      switch (t.op) {
        case TermOp::kEq:
          preds.push_back(warehouse::eq(t.column, t.value));
          break;
        case TermOp::kGe:
          preds.push_back(warehouse::ge(t.column, t.lo));
          break;
        case TermOp::kLe:
          preds.push_back(warehouse::le(t.column, t.hi));
          break;
        case TermOp::kBetween:
          preds.push_back(warehouse::between(t.column, t.lo, t.hi));
          break;
      }
    }
    if (preds.size() == 1) {
      q.where(std::move(preds.front()));
    } else {
      q.where(warehouse::all_of(std::move(preds)));
    }
  }
  q.group_by(spec.group_by).aggregate(spec.aggs).threads(spec.threads);
  return q;
}

warehouse::rollup::QueryInput to_rollup_input(const QuerySpec& spec) {
  warehouse::rollup::QueryInput in;
  in.where.reserve(spec.where.size());
  for (const Term& t : spec.where) {
    warehouse::rollup::PredInput p;
    switch (t.op) {
      case TermOp::kEq: p.op = warehouse::rollup::PredInput::Op::kEq; break;
      case TermOp::kGe: p.op = warehouse::rollup::PredInput::Op::kGe; break;
      case TermOp::kLe: p.op = warehouse::rollup::PredInput::Op::kLe; break;
      case TermOp::kBetween:
        p.op = warehouse::rollup::PredInput::Op::kBetween;
        break;
    }
    p.column = t.column;
    p.value = t.value;
    p.lo = t.lo;
    p.hi = t.hi;
    in.where.push_back(std::move(p));
  }
  in.group_by = spec.group_by;
  in.aggs = spec.aggs;
  return in;
}

}  // namespace supremm::service
