#include "src/serve/term_authority.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

#include "src/util/file_sync.h"

namespace pitex {

namespace {

// The directory holding `path` and its last component.
std::pair<std::string, std::string> SplitPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return {".", path};
  return {slash == 0 ? "/" : path.substr(0, slash), path.substr(slash + 1)};
}

// The decimal term `text` holds, then nothing but whitespace; nothing
// otherwise.
std::optional<uint64_t> ParseTerm(std::string_view text) {
  uint64_t term = 0;
  const char* end = text.data() + text.size();
  const auto [rest, error] = std::from_chars(text.data(), end, term);
  if (error != std::errc()) return std::nullopt;
  for (const char* c = rest; c != end; ++c) {
    if (std::isspace(static_cast<unsigned char>(*c)) == 0) return std::nullopt;
  }
  return term;
}

}  // namespace

uint64_t FileTermAuthority::Current() const {
  uint64_t term = initial_;
  struct stat info;
  if (::stat(path_.c_str(), &info) == 0) {
    std::ifstream in(path_);
    if (!in) return kUnreadableTerm;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::optional<uint64_t> stored = ParseTerm(text);
    if (!stored.has_value()) return kUnreadableTerm;
    term = *stored;
  } else if (errno != ENOENT) {
    return kUnreadableTerm;
  }
  // Every claim is `<name>.<digits>`; other files (the term file's
  // temp twin among them) are not claims.
  const auto [dir, name] = SplitPath(path_);
  DIR* entries = ::opendir(dir.c_str());
  if (entries == nullptr) return kUnreadableTerm;
  while (const dirent* entry = ::readdir(entries)) {
    const std::string_view file(entry->d_name);
    if (file.size() <= name.size() + 1 || !file.starts_with(name) ||
        file[name.size()] != '.') {
      continue;
    }
    const std::string_view digits = file.substr(name.size() + 1);
    uint64_t claimed = 0;
    const auto [rest, error] = std::from_chars(
        digits.data(), digits.data() + digits.size(), claimed);
    if (error == std::errc() && rest == digits.data() + digits.size()) {
      term = std::max(term, claimed);
    }
  }
  ::closedir(entries);
  return term;
}

bool FileTermAuthority::Advance(uint64_t to) {
  if (Current() >= to) return false;
  const std::string claim = path_ + "." + std::to_string(to);
  const int fd =
      ::open(claim.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return false;  // another candidate claimed `to` first
  if (::close(fd) != 0 || !SyncParentDir(claim)) return false;
  // A candidate that claimed a larger term meanwhile holds the newer
  // term, and this one no writer may act on.
  return Current() == to;
}

}  // namespace pitex
