// The service request language (DESIGN.md §13).
//
// Clients talk to the query service in a small line-oriented text language
// rather than through C++ closures, for three reasons: requests can travel
// (logs, benchmarks, replay files), they canonicalize (the result cache keys
// on the canonical text, so syntactic variation never splits cache entries),
// and the testkit can generate them from the same grammar streams it already
// uses for QuerySpecs and replay any served request through the oracle.
//
// Grammar (keywords lowercase, one request per string):
//
//   request := query | report
//   query   := "query" ident
//              [ "where" term ( "and" term )* ]
//              [ "group" ident ( "," ident )* ]
//              "agg" agg ( "," agg )*
//              [ "threads" uint ]
//   report  := "report" "jobs" "dimension" ident
//              "stats" ident ( "," ident )*
//              [ "filter" ident "=" string ]
//              [ "sort" ident ] [ "limit" uint ] [ "threads" uint ]
//   term    := ident "=" string | ident ">=" num | ident "<=" num
//            | ident "between" num "and" num
//   agg     := ("sum"|"mean"|"max"|"min") "(" ident ")" [ "as" ident ]
//            | "wmean" "(" ident "," ident ")" [ "as" ident ]
//            | "count" "(" ")" [ "as" ident ]
//
// Numbers accept anything strtod does (including "inf", "-inf", "nan");
// strings are double-quoted with \" and \\ escapes; idents are
// [A-Za-z_][A-Za-z0-9_]*.
//
// Canonical form: print_request() emits keywords in grammar order, single
// spaces between tokens, list items joined with ",", and finite doubles via
// %.17g — which strtod round-trips bit-exactly, so
// print(parse(print(r))) == print(r) for every request. The only lossy spot
// is NaN payloads in predicate thresholds ("nan" reparses to the default
// quiet NaN), which is behavior-preserving: every NaN comparison is false.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "warehouse/query.h"
#include "warehouse/rollup.h"
#include "xdmod/realm.h"

namespace supremm::service {

enum class TermOp : std::uint8_t { kEq, kGe, kLe, kBetween };

/// One WHERE conjunct.
struct Term {
  TermOp op = TermOp::kGe;
  std::string column;
  std::string value;  // kEq literal (string columns)
  double lo = 0.0;    // kGe / kBetween
  double hi = 0.0;    // kLe / kBetween
};

/// Canonical form of a `query` request: a closure-free warehouse query
/// against one named service table.
struct QuerySpec {
  std::string table;
  std::vector<Term> where;
  std::vector<std::string> group_by;
  std::vector<warehouse::AggSpec> aggs;
  std::size_t threads = 1;
};

/// A parsed request: either a raw warehouse query or an XDMoD jobs-realm
/// report (canonical ReportSpec).
struct Request {
  enum class Kind : std::uint8_t { kQuery, kReport };
  Kind kind = Kind::kQuery;
  QuerySpec query;
  xdmod::JobsRealm::ReportSpec report;
};

/// Parse one request. Throws common::ParseError with the token position
/// ("request:17: expected ...") on malformed input.
[[nodiscard]] Request parse_request(std::string_view text);

/// Canonical text of a request; parse_request(print_request(r)) reproduces r.
[[nodiscard]] std::string print_request(const Request& req);

/// print(parse(text)): the cache key normalization.
[[nodiscard]] std::string canonical_text(std::string_view text);

/// Compile the query form into a ready-to-run warehouse::Query against
/// `table` (predicates, group keys, aggregations, threads — the caller adds
/// the cancel token). Throws NotFoundError / InvalidArgument for unknown or
/// mistyped columns, exactly as Query::run would.
[[nodiscard]] warehouse::Query compile(const QuerySpec& spec,
                                       const warehouse::Table& table);

/// The query's terms re-expressed for the rollup subsumption checker.
/// Lossless (Term and rollup::PredInput have the same shape), so every
/// server of the same request — the service, each federation shard, a
/// bench baseline — reaches the same subsumption decision.
[[nodiscard]] warehouse::rollup::QueryInput to_rollup_input(const QuerySpec& spec);

}  // namespace supremm::service
