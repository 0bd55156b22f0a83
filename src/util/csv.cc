#include "util/csv.h"

#include <array>
#include <cstring>

namespace forkbase {

namespace {

/// Bytes that end a run of ordinary cell bytes outside quotes.
constexpr std::array<bool, 256> kCsvSpecial = [] {
  std::array<bool, 256> special{};
  for (unsigned char c : {',', '"', '\r', '\n'}) special[c] = true;
  return special;
}();

size_t CountNewlines(const char* p, size_t n) {
  size_t lines = 0;
  const char* const end = p + n;
  while (p < end) {
    const void* nl = std::memchr(p, '\n', static_cast<size_t>(end - p));
    if (nl == nullptr) break;
    ++lines;
    p = static_cast<const char*>(nl) + 1;
  }
  return lines;
}

}  // namespace

// One state machine over runs of bytes rather than single characters: a run
// of ordinary bytes is appended in bulk, and an unquoted cell that is one
// whole run is constructed once at its exact size. '\r' outside quotes is
// dropped, a '"' opens a quoted cell only as a cell's first byte and is
// literal anywhere else, and blank lines are skipped.
StatusOr<CsvDocument> ParseCsv(Slice text) {
  const char* const p = text.data();
  const size_t n = text.size();
  CsvDocument doc;
  doc.rows.reserve(CountNewlines(p, n));
  std::vector<std::string> record;
  std::string cell;
  bool in_quotes = false;
  bool cell_started = false;
  bool record_started = false;
  size_t records = 0;
  size_t ragged = 0;  // 1-based record number of the first ragged row
  size_t ragged_width = 0;

  auto end_cell = [&]() {
    record.push_back(std::move(cell));
    cell.clear();
    cell_started = false;
  };
  // Closes a record whose last cell is already in `record`.
  auto finish_record = [&]() {
    ++records;
    if (doc.header.empty()) {
      doc.header = std::move(record);
    } else {
      if (ragged == 0 && record.size() != doc.header.size()) {
        ragged = records;
        ragged_width = record.size();
      }
      doc.rows.push_back(std::move(record));
    }
    record.clear();
    record.reserve(doc.header.size());
    record_started = false;
  };

  size_t i = 0;
  while (i < n) {
    if (in_quotes) {
      const void* q = std::memchr(p + i, '"', n - i);
      if (q == nullptr) {
        return Status::InvalidArgument("CSV ends inside a quoted cell");
      }
      const size_t at = static_cast<size_t>(static_cast<const char*>(q) - p);
      cell.append(p + i, at - i);
      if (at + 1 < n && p[at + 1] == '"') {
        cell.push_back('"');
        i = at + 2;
      } else {
        in_quotes = false;
        i = at + 1;
      }
      continue;
    }
    size_t j = i;
    while (j < n && !kCsvSpecial[static_cast<uint8_t>(p[j])]) ++j;
    if (j > i) {
      record_started = true;
      if (!cell_started && (j == n || p[j] == ',' || p[j] == '\n')) {
        record.emplace_back(p + i, j - i);  // the whole cell
        if (j == n || p[j] == '\n') finish_record();
        i = j + 1;
        continue;
      }
      cell.append(p + i, j - i);
      cell_started = true;
      i = j;
      if (i == n) break;
    }
    switch (p[i]) {
      case '"':
        if (!cell_started) {
          in_quotes = true;
          cell_started = true;
          record_started = true;
        } else {
          cell.push_back('"');  // stray quote mid-cell: keep literally
        }
        break;
      case ',':
        record_started = true;
        end_cell();
        break;
      case '\n':
        if (record_started) {
          end_cell();
          finish_record();
        }
        break;
      default:  // '\r'
        break;
    }
    ++i;
  }
  if (in_quotes) {
    return Status::InvalidArgument("CSV ends inside a quoted cell");
  }
  if (record_started) {
    end_cell();
    finish_record();
  }
  if (doc.header.empty()) {
    return Status::InvalidArgument("CSV has no header record");
  }
  if (ragged != 0) {
    return Status::InvalidArgument(
        "CSV record " + std::to_string(ragged) + " has " +
        std::to_string(ragged_width) + " cells, the header has " +
        std::to_string(doc.header.size()));
  }
  return doc;
}

std::string CsvQuote(const std::string& cell) {
  bool needs = false;
  for (char c : cell) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs = true;
      break;
    }
  }
  if (!needs) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string WriteCsv(const CsvDocument& doc) {
  std::string out;
  auto write_record = [&out](const std::vector<std::string>& rec) {
    for (size_t i = 0; i < rec.size(); ++i) {
      if (i) out.push_back(',');
      out += CsvQuote(rec[i]);
    }
    out.push_back('\n');
  };
  write_record(doc.header);
  for (const auto& r : doc.rows) write_record(r);
  return out;
}

}  // namespace forkbase
