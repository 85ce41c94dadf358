#include "src/sim/event_plan.h"

#include <cctype>
#include <limits>

namespace sim {

namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// The one integer lexer: the digits at s[*i]. Returns false with *i
// unmoved when there are none, and false with *i past them when the value
// does not fit in 64 bits, so callers can tell "missing" from "too big".
bool LexUint(std::string_view s, std::size_t* i, std::uint64_t* out) {
  std::uint64_t v = 0;
  bool fits = *i < s.size() && IsDigit(s[*i]);
  for (; *i < s.size() && IsDigit(s[*i]); ++*i) {
    const auto digit = static_cast<std::uint64_t>(s[*i] - '0');
    fits = fits && v <= (kU64Max - digit) / 10;
    v = v * 10 + digit;
  }
  *out = v;
  return fits;
}

// The one duration lexer: N[ns|us|ms|s] at s[*i], default nanoseconds.
bool LexDuration(std::string_view s, std::size_t* i, Nanoseconds* out) {
  std::uint64_t t = 0;
  if (!LexUint(s, i, &t)) {
    return false;
  }
  const std::string_view rest = s.substr(*i);
  std::uint64_t scale = 1;
  if (rest.starts_with("ns")) {
    *i += 2;
  } else if (rest.starts_with("us")) {
    scale = 1'000, *i += 2;
  } else if (rest.starts_with("ms")) {
    scale = 1'000'000, *i += 2;
  } else if (rest.starts_with("s")) {
    scale = 1'000'000'000, *i += 1;
  }
  *out = t * scale;
  return t <= kU64Max / scale;
}

// A whole-string parse with `lex`; *out is written only on success.
template <typename Lex>
bool LexWhole(std::string_view s, std::uint64_t* out, Lex lex) {
  std::size_t i = 0;
  std::uint64_t v = 0;
  if (!lex(s, &i, &v) || i != s.size()) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

std::vector<std::string> SplitFields(std::string_view s, char sep) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  std::size_t end = 0;
  while ((end = s.find(sep, pos)) != std::string_view::npos) {
    fields.emplace_back(s.substr(pos, end - pos));
    pos = end + 1;
  }
  fields.emplace_back(s.substr(pos));
  return fields;
}

std::vector<std::string> SplitPlanSpec(const std::string& spec) {
  std::vector<std::string> segments = SplitFields(spec, ';');
  std::erase_if(segments, [](const std::string& seg) { return TrimSpace(seg).empty(); });
  return segments;
}

std::string_view TrimSpace(std::string_view s) {
  while (!s.empty() && IsSpace(s.front())) {
    s.remove_prefix(1);
  }
  while (!s.empty() && IsSpace(s.back())) {
    s.remove_suffix(1);
  }
  return s;
}

bool ParseUint(std::string_view s, std::uint64_t* out) { return LexWhole(s, out, LexUint); }

bool ParseDuration(std::string_view s, Nanoseconds* out) { return LexWhole(s, out, LexDuration); }

void PlanLexer::SkipSpace() {
  while (i_ < s_.size() && IsSpace(s_[i_])) {
    ++i_;
  }
}

bool PlanLexer::Accept(std::string_view lit) {
  if (!std::string_view(s_).substr(i_).starts_with(lit)) {
    return false;
  }
  i_ += lit.size();
  return true;
}

bool PlanLexer::At(Nanoseconds* out, std::string* error) {
  SkipSpace();
  if (!Accept("@")) {
    *error = Error("expected '@TIME'");
    return false;
  }
  const std::size_t start = i_;
  if (LexDuration(s_, &i_, out)) {
    return true;
  }
  *error = Error(i_ == start ? "bad time" : "time out of range");
  return false;
}

bool PlanLexer::Uint(const char* what, std::uint64_t* out, std::string* error) {
  const std::size_t start = i_;
  if (LexUint(s_, &i_, out)) {
    return true;
  }
  *error = Error(i_ == start ? std::string("bad ") + what : std::string(what) + " out of range");
  return false;
}

bool PlanLexer::End(std::string* error) {
  SkipSpace();
  if (i_ == s_.size()) {
    return true;
  }
  *error = Error("trailing junk");
  return false;
}

std::string PlanLexer::Error(const std::string& message) const {
  return message + " in \"" + s_ + "\"";
}

}  // namespace sim
