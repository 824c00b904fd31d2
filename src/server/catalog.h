#ifndef SIMDDB_SERVER_CATALOG_H_
#define SIMDDB_SERVER_CATALOG_H_

// Catalog of named in-memory tables for the serving layer.
//
// The executor (exec/query.h) takes raw column pointers; a serving process
// instead loads tables once at startup and lets many concurrent sessions
// reference them by name. A Table is the executor's two-column relation
// shape — a key column and a value column of equal length — owned by the
// catalog in aligned, slack-padded buffers (scan kernels may overshoot by
// up to one vector), optionally alongside the compressed form
// (compress/column.h) so plans can run the scan-over-compressed front-end.
// A table whose keys qualify also gets a join index (exec::JoinIndex),
// built once here, which BindQuery hands to every plan that builds on the
// table, so no query runs its build pipeline.
//
// Concurrency contract: registration happens during load, lookups during
// serving. Both are internally synchronized, but a registered table is
// immutable forever — Find returns borrowed pointers that stay valid and
// constant for the catalog's lifetime, which is what lets N sessions scan
// one table concurrently with no per-query locking.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compress/column.h"
#include "util/aligned_buffer.h"

namespace simddb::exec {
class JoinIndex;
}  // namespace simddb::exec

namespace simddb::server {

/// Bytes a table, or the whole catalog, holds in each representation.
struct TableBytes {
  uint64_t raw = 0;     ///< both raw columns, scan slack included
  uint64_t packed = 0;  ///< the compressed twins' packed blocks
  uint64_t index = 0;   ///< the join index (exec::JoinIndex::bytes)
};

/// Registration-time options. Registration runs on one thread.
struct TableOptions {
  /// Also build compressed twins of both columns (plans may then bind
  /// either representation; results are byte-identical).
  bool compress = false;
};

/// A named, immutable two-column relation owned by the catalog.
class Table {
 public:
  ~Table();

  const std::string& name() const { return name_; }
  size_t rows() const { return rows_; }

  const uint32_t* keys() const { return keys_.data(); }
  const uint32_t* vals() const { return vals_.data(); }

  /// Compressed twins; nullptr unless registered with compress = true.
  const compress::CompressedColumn* keys_compressed() const {
    return keys_c_.get();
  }
  const compress::CompressedColumn* vals_compressed() const {
    return vals_c_.get();
  }

  /// The join index over (keys, vals); nullptr when the table does not
  /// qualify (exec::JoinIndex::Build).
  const exec::JoinIndex* join_index() const { return index_.get(); }

  TableBytes bytes() const;

 private:
  friend class Catalog;
  Table() = default;

  std::string name_;
  size_t rows_ = 0;
  AlignedBuffer<uint32_t> keys_, vals_;
  std::unique_ptr<compress::CompressedColumn> keys_c_, vals_c_;
  std::unique_ptr<exec::JoinIndex> index_;
};

/// Name -> Table directory. Register during load, look up during serving.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Copies the columns into catalog-owned aligned buffers (with the +16
  /// slack the scan kernels may overshoot into), builds the join index when
  /// the table qualifies (a compressed table's key range comes from its
  /// keys' zone maps), and registers the table.
  /// Returns the registered table, or nullptr if the name is taken —
  /// tables are immutable during serving, so re-registration is an error,
  /// never a replace.
  const Table* RegisterTable(const std::string& name, const uint32_t* keys,
                             const uint32_t* vals, size_t rows,
                             const TableOptions& opts = {});

  /// Borrowed, immutable; nullptr when unknown. Valid for the catalog's
  /// lifetime.
  const Table* Find(const std::string& name) const;

  /// Registered names, ascending.
  std::vector<std::string> TableNames() const;

  size_t size() const;

  /// Bytes held by every registered table, summed.
  TableBytes bytes() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace simddb::server

#endif  // SIMDDB_SERVER_CATALOG_H_
