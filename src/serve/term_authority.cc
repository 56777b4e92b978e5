#include "src/serve/term_authority.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sys/stat.h>

#include "src/util/file_sync.h"

namespace pitex {

uint64_t FileTermAuthority::Current() const {
  struct stat info;
  if (::stat(path_.c_str(), &info) != 0) {
    return errno == ENOENT ? initial_ : kUnreadableTerm;
  }
  std::ifstream in(path_);
  if (!in) return kUnreadableTerm;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // The decimal term Advance writes, then nothing but whitespace.
  uint64_t term = 0;
  const char* end = text.data() + text.size();
  const auto [rest, error] = std::from_chars(text.data(), end, term);
  if (error != std::errc()) return kUnreadableTerm;
  for (const char* c = rest; c != end; ++c) {
    if (std::isspace(static_cast<unsigned char>(*c)) == 0) {
      return kUnreadableTerm;
    }
  }
  return term;
}

bool FileTermAuthority::Advance(uint64_t to) {
  if (Current() >= to) return false;
  const std::string tmp = TempPathFor(path_);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << static_cast<unsigned long long>(to) << "\n";
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  return AtomicReplaceFile(tmp, path_);
}

}  // namespace pitex
