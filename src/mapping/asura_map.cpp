#include "mapping/asura_map.hpp"

#include <algorithm>

#include "mapping/extend.hpp"
#include "obs/obs.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/error.hpp"

namespace ccsql::mapping {
namespace {

/// The input columns of ED, in schema order (base inputs then the
/// implementation inputs).
std::vector<std::string> ed_input_columns(const Table& ed) {
  std::vector<std::string> out;
  for (const auto& col : ed.schema().columns()) {
    if (col.kind == ColumnKind::kInput) out.push_back(col.name);
  }
  return out;
}

/// `names` joined by `sep`.
std::string joined(const std::vector<std::string>& names,
                   const char* sep = ", ") {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += sep;
    out += names[i];
  }
  return out;
}

}  // namespace

const std::vector<OutputGroup>& directory_output_groups() {
  static const std::vector<OutputGroup> kGroups = {
      {"locmsg", {"locmsg", "locmsgsrc", "locmsgdest", "locmsgres", "cmpl"}},
      {"remmsg", {"remmsg", "remmsgsrc", "remmsgdest", "remmsgres"}},
      {"memmsg", {"memmsg", "memmsgsrc", "memmsgdest", "memmsgres",
                  "datapath"}},
      {"dir", {"nxtdirst", "nxtdirpv", "dirupd", "Fdback"}},
      {"bdir", {"nxtbdirst", "nxtbdirpv", "bdirop"}},
  };
  return kGroups;
}

ControllerSpec make_extended_directory(const ProtocolSpec& asura) {
  ExtendedTableBuilder b("ED", asura.controller(asura::kDirectory));

  b.extend_domain("inmsg", {"Dfdback"});
  // Qstatus: Full if any output queue or the busy directory is full;
  // Dqstatus: whether the directory update queue is full.  Requests are
  // handled on Qstatus alone, responses on Dqstatus alone; the other
  // column is collapsed to NotFull to keep the table canonical.
  b.add_input("Qstatus", {"Full", "NotFull"});
  b.add_input("Dqstatus", {"Full", "NotFull"});
  b.add_output("Fdback", {"NULL", "Dfdback"});

  b.constrain("Qstatus",
              "isresponse(inmsg) ? Qstatus = NotFull : true");
  b.constrain("Dqstatus",
              "isrequest(inmsg) ? Dqstatus = NotFull : true");

  // The feedback request targets a settled line: the transaction whose
  // update it carries has already completed.
  b.constrain("bdirst", "inmsg = Dfdback ? bdirst = \"I\" : true");

  // Requests finding the output queues full are retried outright; the
  // internal feedback request is simply re-queued (no retry message).
  b.wrap("locmsg",
         "isrequest(inmsg) and Qstatus = Full",
         "inmsg = Dfdback ? locmsg = NULL : locmsg = retry");
  // A retried / re-queued request performs no other action, and the
  // feedback request's only action is the deferred directory write.
  const char* kSquelch =
      "(isrequest(inmsg) and Qstatus = Full) or inmsg = Dfdback";
  b.wrap("remmsg", kSquelch, "remmsg = NULL");
  b.wrap("memmsg", kSquelch, "memmsg = NULL");
  b.wrap("nxtdirst", kSquelch, "nxtdirst = NULL");
  b.wrap("nxtdirpv", kSquelch, "nxtdirpv = NULL");
  b.wrap("nxtbdirst", kSquelch, "nxtbdirst = NULL");
  b.wrap("nxtbdirpv", kSquelch, "nxtbdirpv = NULL");
  b.wrap("bdirop", kSquelch, "bdirop = NULL");
  b.wrap("datapath", kSquelch, "datapath = NULL");
  // Wrap order matters: the Dfdback behaviour is wrapped first so that the
  // outer Qstatus=Full wrap takes precedence (a feedback request that is
  // itself re-queued performs nothing yet).
  b.wrap("dirupd", "inmsg = Dfdback", "dirupd = upd");
  b.wrap("dirupd",
         "isrequest(inmsg) and Qstatus = Full",
         "dirupd = NULL");
  b.wrap("cmpl", "inmsg = Dfdback", "cmpl = done");
  b.wrap("cmpl",
         "isrequest(inmsg) and Qstatus = Full",
         "cmpl = NULL");

  // Routing columns of squelched messages follow their message columns via
  // the original `X = NULL ? Xsrc = NULL : ...` constraints, so they need
  // no wrapping.

  // The deferred-update feedback: a response that must write the directory
  // while the update queue is full ships the update as a Dfdback request.
  b.constrain("Fdback",
              "isresponse(inmsg) and Dqstatus = Full and dirupd = upd ? "
              "Fdback = Dfdback : Fdback = NULL");

  return b.build();
}

std::vector<ImplementationTable> partition_directory(
    const Table& ed, const FunctionRegistry& functions) {
  Database cat;
  cat.put("ED", ed);
  cat.functions() = functions;

  const std::vector<std::string> inputs = ed_input_columns(ed);
  std::vector<ImplementationTable> out;
  for (bool request : {true, false}) {
    for (const auto& group : directory_output_groups()) {
      if (!request && group.name == "remmsg") continue;  // responses never snoop
      std::vector<std::string> cols = inputs;
      cols.insert(cols.end(), group.columns.begin(), group.columns.end());
      // The paper's query shape:
      //   Create Table Request_remmsg as
      //     Select distinct ED.Inputs, remmsg from ED
      //     where isrequest(ED.Inputs.inmsg)
      std::string sql = "select distinct " + joined(cols) + " from ED where ";
      sql += request ? "isrequest(inmsg)" : "isresponse(inmsg)";
      ImplementationTable t;
      t.name = (request ? "Request_" : "Response_") + group.name;
      t.request = request;
      t.group = group.name;
      t.table = cat.query(sql).rows;
      out.push_back(std::move(t));
    }
  }
  return out;
}

Table reconstruct_extended(const std::vector<ImplementationTable>& parts,
                           const Table& ed_reference) {
  // One SQL statement: per controller, its tables joined on the input
  // columns; the two controllers unioned.  A group a controller has no
  // table for (responses never snoop, so there is no Response_remmsg)
  // reads from a one-row table of NULLs.
  Database cat;
  const std::vector<std::string> inputs = ed_input_columns(ed_reference);
  std::string sql;
  for (bool request : {true, false}) {
    std::vector<std::string> from, equalities, nulls_from;
    std::vector<std::string> source(ed_reference.column_count());
    std::string first;  // the alias the input columns are read from
    for (const OutputGroup& group : directory_output_groups()) {
      const auto part =
          std::find_if(parts.begin(), parts.end(), [&](const auto& p) {
            return p.request == request && p.group == group.name;
          });
      std::string alias = "t";
      alias += std::to_string(from.size() + nulls_from.size());
      if (part != parts.end()) {
        cat.put(part->name, part->table);
        from.push_back(part->name + " " + alias);
        if (first.empty()) {
          first = alias;
        } else {
          for (const std::string& in : inputs) {
            equalities.push_back(first + "." + in + " = " + alias + "." + in);
          }
        }
      } else {
        const std::string name = "Null_" + group.name;
        Table nulls(ed_reference.schema().project(group.columns));
        const std::vector<Value> row(group.columns.size(), null_value());
        nulls.append(RowView(row));
        cat.put(name, std::move(nulls));
        nulls_from.push_back(name + " " + alias);
      }
      for (const std::string& col : group.columns) {
        source[ed_reference.schema().index_of(col)] = alias + "." + col;
      }
    }
    if (from.empty()) {
      throw Error("reconstruct_extended: missing partition tables");
    }
    for (const std::string& in : inputs) {
      source[ed_reference.schema().index_of(in)] = first + "." + in;
    }
    from.insert(from.end(), nulls_from.begin(), nulls_from.end());
    if (!sql.empty()) sql += " union ";
    sql += "select " + joined(source) + " from " + joined(from);
    if (!equalities.empty()) sql += " where " + joined(equalities, " and ");
  }
  return cat.query(sql).rows.with_schema(ed_reference.schema_ptr());
}

Table reconstruct_base(const Table& ed, const Table& d_reference) {
  Database cat;
  cat.put("ED", ed);
  std::vector<std::string> d_cols;
  for (const auto& c : d_reference.schema().columns()) {
    d_cols.push_back(c.name);
  }
  return cat
      .query("select distinct " + joined(d_cols) +
             " from ED where not inmsg = Dfdback and not Qstatus = Full "
             "and not Dqstatus = Full")
      .rows.with_schema(d_reference.schema_ptr());
}

MappingReport verify_directory_mapping(const ProtocolSpec& asura) {
  MappingReport report;
  const FunctionRegistry& functions = asura.database().functions();
  Table ed;
  {
    CCSQL_SPAN(span, "mapping.extend", "mapping");
    const ControllerSpec ed_spec = make_extended_directory(asura);
    ed = ed_spec.generate(&functions);
  }
  report.ed_rows = ed.row_count();
  report.ed_cols = ed.column_count();

  std::vector<ImplementationTable> parts;
  {
    CCSQL_SPAN(span, "mapping.partition", "mapping");
    parts = partition_directory(ed, functions);
  }
  for (const auto& p : parts) {
    report.table_rows.emplace_back(p.name, p.table.row_count());
  }

  const Table& d = asura.database().get(asura::kDirectory);
  Table rebuilt, base;
  {
    CCSQL_SPAN(span, "mapping.reconstruct", "mapping");
    rebuilt = reconstruct_extended(parts, ed);
    base = reconstruct_base(ed, d);
  }
  CCSQL_SPAN(span, "mapping.check", "mapping");
  report.ed_reconstructed = rebuilt.set_equal(ed);
  report.base_recovered = base.set_equal(d);
  // Equal sets contain each other; only a mismatch needs the probe.
  report.contains_debugged = report.base_recovered || base.contains_all(d);
  return report;
}

}  // namespace ccsql::mapping
