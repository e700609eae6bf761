//===- codegen/SpecFile.h - RELC input file front end ------------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The text format the `relc` command-line compiler consumes: one file
/// declaring the relational specification, the decomposition (in the
/// Fig. 3 let-language), and the method set to synthesize.
///
///   relation scheduler(ns, pid, state, cpu)
///   fd ns, pid -> state, cpu
///
///   let w : {ns, pid, state} = unit {cpu}
///   let y : {ns} = map({pid}, htable, w)
///   let z : {state} = map({ns, pid}, ilist, w)
///   let x : {} = join(map({ns}, htable, y), map({state}, vector, z))
///
///   class scheduler_relation
///   namespace relcgen
///   query query_by_state (state) -> (ns, pid)
///   query query_cpu (ns, pid) -> (cpu)
///   remove ns, pid
///   update ns, pid
///   upsert ns, pid
///   transaction ns, pid x 3
///   concurrency sharded 8 on ns
///
/// `upsert` emits the atomic read-modify-write pair lookup_by_/
/// upsert_by_ for a key pattern; `concurrency sharded <N> [on <col>]`
/// additionally emits a sharded thread-safe facade class wrapping N
/// generated sub-instances (shard column defaults to the first column
/// of the decomposition root's key); `transaction <cols> [x N]` emits,
/// on that facade, the atomic N-key read-modify-write transact_by_ /
/// transact<N>_by_ for a key pattern (multi-key transactions under
/// two-phase locking over exactly the owning shard stripes — it
/// therefore requires a facade, which the relc tool enforces). The
/// arity defaults to 2 (the transfer shape) and caps at 8.
///
/// Lines starting with `#` are comments. Directives may appear in any
/// order except that `relation`/`fd` must precede the `let` bindings.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_CODEGEN_SPECFILE_H
#define RELC_CODEGEN_SPECFILE_H

#include "codegen/Options.h"
#include "decomp/Decomposition.h"

#include <optional>
#include <string>
#include <string_view>

namespace relc {

/// A fully parsed `relc` input: everything the compile pipeline needs.
struct SpecFile {
  RelSpecRef Spec;
  std::optional<Decomposition> Decomp;
  EmitterOptions Options;
};

struct SpecFileResult {
  std::optional<SpecFile> File;
  /// The bare diagnostic text, no position prefix (see message()).
  std::string Error;
  /// 1-based source position of the error; 0 when the error has no
  /// useful anchor (e.g. a missing `relation` declaration).
  unsigned Line = 0;
  unsigned Col = 0;

  bool ok() const { return File.has_value(); }
  /// "line L, col C: <Error>" when positioned, else just Error.
  std::string message() const {
    if (!Line)
      return Error;
    return "line " + std::to_string(Line) + ", col " +
           std::to_string(Col) + ": " + Error;
  }
};

/// Parses the text of one relc input file.
SpecFileResult parseSpecFile(std::string_view Text);

} // namespace relc

#endif // RELC_CODEGEN_SPECFILE_H
