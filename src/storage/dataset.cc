#include "storage/dataset.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <utility>

namespace pass {

Dataset::Dataset(std::string agg_name, std::vector<std::string> pred_names)
    : agg_name_(std::move(agg_name)), pred_names_(std::move(pred_names)) {
  PASS_CHECK_MSG(!pred_names_.empty(),
                 "a dataset needs at least one predicate column");
  pred_cols_.resize(pred_names_.size());
}

Dataset::Dataset(const Dataset& other)
    : agg_name_(other.agg_name_),
      pred_names_(other.pred_names_),
      agg_(other.agg_),
      pred_cols_(other.pred_cols_),
      version_(other.version()) {}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this == &other) return *this;
  agg_name_ = other.agg_name_;
  pred_names_ = other.pred_names_;
  agg_ = other.agg_;
  pred_cols_ = other.pred_cols_;
  version_.store(other.version(), std::memory_order_release);
  return *this;
}

Dataset::Dataset(Dataset&& other) noexcept
    : agg_name_(std::move(other.agg_name_)),
      pred_names_(std::move(other.pred_names_)),
      agg_(std::move(other.agg_)),
      pred_cols_(std::move(other.pred_cols_)),
      version_(other.version()) {}

Dataset& Dataset::operator=(Dataset&& other) noexcept {
  if (this == &other) return *this;
  agg_name_ = std::move(other.agg_name_);
  pred_names_ = std::move(other.pred_names_);
  agg_ = std::move(other.agg_);
  pred_cols_ = std::move(other.pred_cols_);
  version_.store(other.version(), std::memory_order_release);
  return *this;
}

void Dataset::Reserve(size_t rows) {
  agg_.reserve(rows);
  for (auto& col : pred_cols_) col.reserve(rows);
}

void Dataset::AddRow(const std::vector<double>& preds, double agg) {
  PASS_CHECK(preds.size() == pred_cols_.size());
  for (size_t i = 0; i < preds.size(); ++i) pred_cols_[i].push_back(preds[i]);
  agg_.push_back(agg);
  // Release-publish the stamp after the row lands. Appends are
  // single-writer; the atomic only makes concurrent version() *reads*
  // (cache re-stamping during a streaming append) well-defined.
  version_.fetch_add(1, std::memory_order_release);
}

Dataset Dataset::WithPredDims(size_t num_dims) const {
  PASS_CHECK(num_dims >= 1 && num_dims <= NumPredDims());
  std::vector<std::string> names(
      pred_names_.begin(), pred_names_.begin() + static_cast<long>(num_dims));
  Dataset out(agg_name_, std::move(names));
  out.agg_ = agg_;
  for (size_t i = 0; i < num_dims; ++i) out.pred_cols_[i] = pred_cols_[i];
  return out;
}

Dataset Dataset::Subset(const std::vector<uint32_t>& row_ids) const {
  Dataset out(agg_name_, pred_names_);
  out.Reserve(row_ids.size());
  for (const uint32_t row : row_ids) {
    PASS_CHECK_MSG(row < NumRows(), "subset row id out of range");
    out.agg_.push_back(agg_[row]);
    for (size_t d = 0; d < pred_cols_.size(); ++d) {
      out.pred_cols_[d].push_back(pred_cols_[d][row]);
    }
  }
  return out;
}

std::vector<uint32_t> Dataset::SortedPermutation(size_t dim) const {
  PASS_CHECK(dim < pred_cols_.size());
  std::vector<uint32_t> perm(NumRows());
  std::iota(perm.begin(), perm.end(), 0u);
  const auto& col = pred_cols_[dim];
  std::stable_sort(perm.begin(), perm.end(),
                   [&col](uint32_t a, uint32_t b) { return col[a] < col[b]; });
  return perm;
}

Status Dataset::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open for write: " + path);
  for (size_t i = 0; i < pred_names_.size(); ++i) {
    std::fprintf(f, "%s,", pred_names_[i].c_str());
  }
  std::fprintf(f, "%s\n", agg_name_.c_str());
  for (size_t row = 0; row < NumRows(); ++row) {
    for (size_t d = 0; d < pred_cols_.size(); ++d) {
      std::fprintf(f, "%.17g,", pred_cols_[d][row]);
    }
    std::fprintf(f, "%.17g\n", agg_[row]);
  }
  std::fclose(f);
  return Status::Ok();
}

namespace {

// Parses one data row: d predicate fields and the aggregate, separated by
// commas. False when a field is missing or not a number, or when anything
// but whitespace follows the aggregate (trailing garbage, an extra field).
bool ParseCsvRow(const std::string& line, std::vector<double>* preds,
                 double* agg) {
  const char* cursor = line.c_str();
  char* next = nullptr;
  for (double& pred : *preds) {
    pred = std::strtod(cursor, &next);
    if (next == cursor || *next != ',') return false;
    cursor = next + 1;
  }
  *agg = std::strtod(cursor, &next);
  if (next == cursor) return false;
  while (std::isspace(static_cast<unsigned char>(*next))) ++next;
  return *next == '\0';
}

}  // namespace

Result<Dataset> Dataset::ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  // Whole lines of any length: std::getline grows the buffer as needed.
  std::string line;
  if (!std::getline(in, line)) return Status::IoError("empty csv: " + path);
  // Parse the header: last column is the aggregate.
  std::vector<std::string> names;
  {
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      while (!cell.empty() && cell.back() == '\r') cell.pop_back();
      names.push_back(cell);
    }
  }
  if (names.size() < 2) {
    return Status::IoError("csv needs >= 2 columns: " + path);
  }
  std::string agg_name = names.back();
  names.pop_back();
  Dataset out(std::move(agg_name), std::move(names));
  std::vector<double> preds(out.NumPredDims());
  double agg = 0.0;
  while (std::getline(in, line)) {
    // Malformed rows (e.g. a blank trailing line) are skipped.
    if (ParseCsvRow(line, &preds, &agg)) out.AddRow(preds, agg);
  }
  return out;
}

}  // namespace pass
