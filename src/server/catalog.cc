#include "server/catalog.h"

#include <cstring>

#include "core/isa.h"
#include "exec/pipeline.h"

namespace simddb::server {

const Table* Catalog::RegisterTable(const std::string& name,
                                    const uint32_t* keys, const uint32_t* vals,
                                    size_t rows, const TableOptions& opts) {
  // Copy and (optionally) compress outside the lock: registration is a
  // load-time operation, but a slow compress must not block lookups from
  // sessions already serving other tables.
  auto table = std::unique_ptr<Table>(new Table());
  table->name_ = name;
  table->rows_ = rows;
  table->keys_.Reset(rows + 16);  // scan kernels may overshoot one vector
  table->vals_.Reset(rows + 16);
  if (rows > 0) {
    std::memcpy(table->keys_.data(), keys, rows * sizeof(uint32_t));
    std::memcpy(table->vals_.data(), vals, rows * sizeof(uint32_t));
  }
  if (opts.compress) {
    table->keys_c_ = std::make_unique<compress::CompressedColumn>(
        compress::CompressColumn(keys, rows));
    table->vals_c_ = std::make_unique<compress::CompressedColumn>(
        compress::CompressColumn(vals, rows));
  }
  table->index_ = exec::JoinIndex::Build(BestIsa(), table->keys(),
                                         table->vals(), rows,
                                         table->keys_compressed());

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tables_.emplace(name, std::move(table));
  return inserted ? it->second.get() : nullptr;
}

Table::~Table() = default;

TableBytes Table::bytes() const {
  TableBytes b;
  b.raw = (keys_.size() + vals_.size()) * sizeof(uint32_t);
  if (keys_c_ != nullptr) {
    b.packed = keys_c_->packed_bytes() + vals_c_->packed_bytes();
  }
  if (index_ != nullptr) b.index = index_->bytes();
  return b;
}

const Table* Catalog::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  return names;
}

size_t Catalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

TableBytes Catalog::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  TableBytes total;
  for (const auto& [name, t] : tables_) {
    const TableBytes b = t->bytes();
    total.raw += b.raw;
    total.packed += b.packed;
    total.index += b.index;
  }
  return total;
}

}  // namespace simddb::server
