#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <tuple>

namespace apn::lint {

namespace {

constexpr std::size_t npos = std::string::npos;

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool path_contains(const std::string& path, const char* needle) {
  return path.find(needle) != npos;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::string(suffix).size();
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Parse `apn-lint: allow(a, b c)` occurrences inside one comment. Rule
/// names may be separated by commas and/or whitespace.
void collect_allows(const std::string& comment, int line, FileIR& out) {
  const std::string kMarker = "apn-lint: allow(";
  std::size_t pos = 0;
  while ((pos = comment.find(kMarker, pos)) != npos) {
    std::size_t start = pos + kMarker.size();
    std::size_t end = comment.find(')', start);
    if (end == npos) break;
    std::string cur;
    for (std::size_t i = start; i <= end; ++i) {
      const char c = i < end ? comment[i] : ' ';
      if (c == ',' || c == ' ' || c == '\t') {
        if (!cur.empty()) out.allows.insert({line, cur});
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    pos = end;
  }
}

/// Blank comments/strings into spaces (newlines survive) so offsets and line
/// numbers in `ir.text` match the original buffer; collect suppressions from
/// comment text before it is blanked.
void strip_into(const std::string& src, FileIR& ir) {
  ir.text.assign(src.size(), ' ');
  ir.line_starts.push_back(0);
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar };
  St st = St::kCode;
  std::string comment;
  int comment_line = 0;
  int line = 1;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char n = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') {
      ir.text[i] = '\n';
      ir.line_starts.push_back(i + 1);
      ++line;
    }
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLineComment;
          comment.clear();
          comment_line = line;
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlockComment;
          comment.clear();
          comment_line = line;
          ++i;
        } else if (c == '"') {
          st = St::kString;
        } else if (c == '\'') {
          st = St::kChar;
        } else if (c != '\n') {
          ir.text[i] = c;
        }
        break;
      case St::kLineComment:
        if (c == '\n') {
          collect_allows(comment, comment_line, ir);
          st = St::kCode;
        } else {
          comment.push_back(c);
        }
        break;
      case St::kBlockComment:
        if (c == '*' && n == '/') {
          collect_allows(comment, comment_line, ir);
          st = St::kCode;
          ++i;
        } else {
          comment.push_back(c);
        }
        break;
      case St::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        }
        break;
      case St::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        }
        break;
    }
  }
  if (st == St::kLineComment || st == St::kBlockComment)
    collect_allows(comment, comment_line, ir);
}

struct Ident {
  std::size_t off;
  std::string text;
};

std::vector<Ident> identifiers(const std::string& text) {
  std::vector<Ident> out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (ident_char(text[i]) &&
        std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      std::size_t start = i;
      while (i < text.size() && ident_char(text[i])) ++i;
      out.push_back({start, text.substr(start, i - start)});
    } else {
      ++i;
    }
  }
  return out;
}

std::size_t prev_nonspace(const std::string& t, std::size_t off) {
  while (off > 0) {
    --off;
    if (t[off] != ' ' && t[off] != '\n' && t[off] != '\t') return off;
  }
  return npos;
}

std::size_t next_nonspace(const std::string& t, std::size_t off) {
  while (off < t.size()) {
    if (t[off] != ' ' && t[off] != '\n' && t[off] != '\t') return off;
    ++off;
  }
  return npos;
}

/// Identifier token whose last character sits at `end` (inclusive).
std::string token_ending_at(const std::string& t, std::size_t end,
                            std::size_t* begin_out = nullptr) {
  std::size_t b = end;
  while (b > 0 && ident_char(t[b - 1])) --b;
  if (begin_out != nullptr) *begin_out = b;
  return t.substr(b, end - b + 1);
}

bool contains_token(const std::string& haystack, const std::string& tok) {
  std::size_t pos = 0;
  while ((pos = haystack.find(tok, pos)) != npos) {
    const bool l = pos == 0 || !ident_char(haystack[pos - 1]);
    const std::size_t after = pos + tok.size();
    const bool r = after >= haystack.size() || !ident_char(haystack[after]);
    if (l && r) return true;
    pos = after;
  }
  return false;
}

bool member_access_before(const std::string& t, std::size_t ident_off) {
  std::size_t p = prev_nonspace(t, ident_off);
  if (p == npos) return false;
  if (t[p] == '.') return true;
  if (t[p] == '>' && p > 0 && t[p - 1] == '-') return true;
  return false;
}

/// Matching close of the template argument list opened at `open` ('<').
std::size_t match_template(const std::string& t, std::size_t open) {
  int depth = 0;
  std::size_t paren = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    const char c = t[i];
    if (c == '(') ++paren;
    else if (c == ')' && paren > 0) --paren;
    if (paren > 0) continue;
    if (c == '<') ++depth;
    else if (c == '>') {
      --depth;
      if (depth == 0) return i;
    } else if (c == ';' || c == '{')
      return npos;  // comparison operator, not a template
  }
  return npos;
}

/// Walk backwards from `off` (a `close` character) to its matching `open`.
std::size_t match_back(const std::string& t, std::size_t off, char open,
                       char close) {
  int depth = 0;
  for (std::size_t i = off + 1; i-- > 0;) {
    if (t[i] == close) ++depth;
    else if (t[i] == open) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return npos;
}

/// Walk forward from `off` (an `open` character) to its matching `close`.
std::size_t match_fwd(const std::string& t, std::size_t off, char open,
                      char close) {
  int depth = 0;
  for (std::size_t i = off; i < t.size(); ++i) {
    if (t[i] == open) ++depth;
    else if (t[i] == close) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return npos;
}

/// Greatest statement-start offset <= off (0 when none).
std::size_t stmt_start_of(const FileIR& ir, std::size_t off) {
  auto it = std::upper_bound(ir.stmt_starts.begin(), ir.stmt_starts.end(), off);
  if (it == ir.stmt_starts.begin()) return 0;
  return *(--it);
}

/// UTF-16 code-unit width of the UTF-8 sequence starting with byte `b`
/// (0 for continuation bytes, 2 for astral-plane four-byte sequences).
int utf16_units(unsigned char b) {
  if ((b & 0xC0) == 0x80) return 0;  // continuation byte
  if (b >= 0xF0) return 2;           // 4-byte UTF-8 -> surrogate pair
  return 1;                          // ASCII and 2/3-byte sequences
}

/// 1-based SARIF column (UTF-16 code units, per SARIF 2.1.0 §3.10.5) of
/// byte offset `off` in the *raw* source, plus the end column one past the
/// flagged token. The raw buffer is scanned because stripping replaces
/// multibyte comment/string bytes with single spaces' worth of bytes —
/// byte counts survive, but the UTF-16 width only exists in the original.
void utf16_cols(const FileIR& ir, std::size_t off, int* col, int* end_col) {
  *col = 0;
  *end_col = 0;
  if (ir.raw.size() != ir.text.size() || off >= ir.raw.size()) return;
  const int line = ir.line_of(off);
  const std::size_t ls = ir.line_starts[static_cast<std::size_t>(line - 1)];
  int c = 1;
  for (std::size_t i = ls; i < off; ++i)
    c += utf16_units(static_cast<unsigned char>(ir.raw[i]));
  *col = c;
  // Token width: flagged tokens are identifiers/operators in the stripped
  // text, which is pure ASCII there (1 byte == 1 UTF-16 unit).
  std::size_t e = off;
  while (e < ir.text.size() && ident_char(ir.text[e])) ++e;
  *end_col = c + static_cast<int>(e > off ? e - off : 1);
}

void add(std::vector<Finding>& out, const FileIR& ir, std::size_t off,
         const char* rule, std::string detail) {
  const int line = ir.line_of(off);
  const int stmt_line = ir.stmt_line_of(off);
  if (ir.allowed(line, stmt_line, rule)) return;
  int col = 0, end_col = 0;
  utf16_cols(ir, off, &col, &end_col);
  out.push_back(Finding{ir.path, line, col, end_col, rule, std::move(detail)});
}

void add_at_line(std::vector<Finding>& out, const FileIR& ir, int line,
                 const char* rule, std::string detail) {
  if (ir.allowed(line, line, rule)) return;
  out.push_back(Finding{ir.path, line, 0, 0, rule, std::move(detail)});
}

// ---------------------------------------------------------------------------
// Statement index
// ---------------------------------------------------------------------------

/// Statement boundaries are ';', '{', '}' at paren depth 0, so `for (;;)`
/// headers and brace-inits inside argument lists do not split statements.
void build_stmt_index(FileIR& ir) {
  const std::string& t = ir.text;
  int paren = 0;
  std::size_t first = next_nonspace(t, 0);
  if (first != npos) ir.stmt_starts.push_back(first);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const char c = t[i];
    if (c == '(') {
      ++paren;
    } else if (c == ')') {
      if (paren > 0) --paren;
    } else if ((c == ';' || c == '{' || c == '}') && paren == 0) {
      std::size_t s = next_nonspace(t, i + 1);
      if (s != npos &&
          (ir.stmt_starts.empty() || ir.stmt_starts.back() != s))
        ir.stmt_starts.push_back(s);
    }
  }
}

// ---------------------------------------------------------------------------
// Declaration splitting (used for parameters, locals and class members)
// ---------------------------------------------------------------------------

std::string trim(std::string s) {
  std::size_t b = s.find_first_not_of(" \t\n");
  if (b == npos) return "";
  std::size_t e = s.find_last_not_of(" \t\n");
  return s.substr(b, e - b + 1);
}

/// Best-effort `Type name` split of one declaration chunk (text cut at any
/// initializer). Returns false when the chunk does not look like a decl.
bool parse_decl_chunk(const std::string& chunk, int line, Decl& out) {
  std::string text = chunk;
  for (const char cut : {'=', '[', '{'}) {
    std::size_t p = text.find(cut);
    if (p != npos) text.erase(p);
  }
  std::vector<Ident> ids = identifiers(text);
  if (ids.size() < 2) return false;
  const Ident& name = ids.back();
  // Bitfield `int x : 3` — digits are skipped by identifiers(), so the name
  // is already the last *identifier*; nothing extra to do.
  out.name = name.text;
  out.type_text = trim(text.substr(0, name.off));
  out.line = line;
  return !out.type_text.empty();
}

// ---------------------------------------------------------------------------
// Scope walker: classify every '{' into namespace / class / function / other
// ---------------------------------------------------------------------------

struct Scope {
  char kind;  // 'n' namespace, 'c' class, 'f' function, 'b' block, 'o' other
  std::size_t open = 0;
  int index = -1;  // into ir.functions / ir.classes
};

std::string first_token(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() && !ident_char(s[i])) ++i;
  if (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0)
    return "";
  std::size_t b = i;
  while (i < s.size() && ident_char(s[i])) ++i;
  return s.substr(b, i - b);
}

/// Skip `Ns::` qualifier chains leftwards from the begin of an identifier.
/// Returns the offset of the first non-space character before the fully
/// qualified name, or npos.
std::size_t skip_qualifiers_back(const std::string& t, std::size_t name_begin) {
  std::size_t q = prev_nonspace(t, name_begin);
  while (q != npos && t[q] == ':' && q > 0 && t[q - 1] == ':') {
    std::size_t qq = prev_nonspace(t, q - 1);
    if (qq == npos || !ident_char(t[qq])) return npos;
    std::size_t qb;
    token_ending_at(t, qq, &qb);
    q = prev_nonspace(t, qb);
  }
  return q;
}

/// Split a parameter list body on top-level commas into Decl entries.
void parse_params(const FileIR& ir, std::size_t lp, std::size_t rp,
                  std::vector<Decl>& out) {
  const std::string& t = ir.text;
  int angle = 0, paren = 0, brace = 0;
  std::size_t begin = lp + 1;
  auto flush = [&](std::size_t end) {
    if (end <= begin) return;
    Decl d;
    if (parse_decl_chunk(t.substr(begin, end - begin),
                         ir.line_of(begin), d))
      out.push_back(std::move(d));
  };
  for (std::size_t i = lp + 1; i < rp; ++i) {
    const char c = t[i];
    if (c == '<') ++angle;
    else if (c == '>') { if (angle > 0) --angle; }
    else if (c == '(') ++paren;
    else if (c == ')') { if (paren > 0) --paren; }
    else if (c == '{') ++brace;
    else if (c == '}') { if (brace > 0) --brace; }
    else if (c == ',' && angle == 0 && paren == 0 && brace == 0) {
      flush(i);
      begin = i + 1;
    }
  }
  flush(rp);
}

struct BraceInfo {
  char kind = 'o';
  std::string name;        // function or class name
  std::size_t name_off = 0;
  std::size_t lp = npos, rp = npos;  // parameter list (functions)
  bool is_lambda = false;
  std::size_t cap_open = npos, cap_close = npos;  // '[' / ']' of the capture
};

/// Given a ')' at `rp0` directly before a '{' (after qualifiers), decide
/// whether this is a control statement, a lambda, or a function definition —
/// walking backwards through constructor initializer lists when needed.
BraceInfo analyze_paren_group(const std::string& t, std::size_t rp0) {
  static const std::set<std::string> kControl = {
      "if", "for", "while", "switch", "catch", "constexpr", "requires",
      "decltype", "sizeof", "alignof", "return", "assert"};
  BraceInfo out;
  std::size_t rp = rp0;
  for (int guard = 0; guard < 256; ++guard) {
    std::size_t lp = match_back(t, rp, '(', ')');
    if (lp == npos) return out;
    std::size_t ne = prev_nonspace(t, lp);
    if (ne == npos) return out;
    if (t[ne] == ']') {
      std::size_t lb = match_back(t, ne, '[', ']');
      out.kind = 'f';
      out.is_lambda = true;
      out.cap_open = lb;
      out.cap_close = ne;
      out.name_off = lb == npos ? lp : lb;
      out.lp = lp;
      out.rp = rp;
      return out;
    }
    if (t[ne] == '>') {  // templated name `foo<T>(...)`
      std::size_t lt = match_back(t, ne, '<', '>');
      if (lt == npos) return out;
      ne = prev_nonspace(t, lt);
      if (ne != npos && t[ne] == ']') {
        // C++20 template lambda `[...]<typename T>(T x) { ... }`.
        std::size_t lb = match_back(t, ne, '[', ']');
        out.kind = 'f';
        out.is_lambda = true;
        out.cap_open = lb;
        out.cap_close = ne;
        out.name_off = lb == npos ? lp : lb;
        out.lp = lp;
        out.rp = rp;
        return out;
      }
      if (ne == npos || !ident_char(t[ne])) return out;
    }
    if (!ident_char(t[ne])) return out;
    std::size_t nb;
    std::string name = token_ending_at(t, ne, &nb);
    if (kControl.count(name) != 0) {
      out.kind = 'b';
      return out;
    }
    if (name == "noexcept" || name == "alignas") {
      // `void f() noexcept(true)` — qualifier with arguments: the real
      // parameter list is the ')' before the qualifier keyword.
      std::size_t before = prev_nonspace(t, nb);
      if (before == npos || t[before] != ')') return out;
      rp = before;
      continue;
    }
    std::size_t q = skip_qualifiers_back(t, nb);
    if (q != npos &&
        (t[q] == ',' || (t[q] == ':' && (q == 0 || t[q - 1] != ':')))) {
      // Constructor initializer-list entry: hop to the previous group.
      std::size_t prev = prev_nonspace(t, q);
      if (prev == npos) return out;
      if (t[prev] == ')' || t[prev] == '}') {
        rp = prev;
        if (t[prev] == '}') {
          // `a_{x},` entry: skip the braces, then its name, then loop on
          // whatever precedes that name (',' / ':' / the param-list ')').
          std::size_t ob = match_back(t, prev, '{', '}');
          if (ob == npos) return out;
          std::size_t en = prev_nonspace(t, ob);
          if (en == npos || !ident_char(t[en])) return out;
          std::size_t eb;
          token_ending_at(t, en, &eb);
          std::size_t q2 = skip_qualifiers_back(t, eb);
          if (q2 == npos) return out;
          if (t[q2] == ')') {
            rp = q2;
          } else if (t[q2] == ',' ||
                     (t[q2] == ':' && (q2 == 0 || t[q2 - 1] != ':'))) {
            std::size_t p2 = prev_nonspace(t, q2);
            if (p2 == npos || (t[p2] != ')' && t[p2] != '}')) return out;
            rp = p2;
            if (t[p2] == '}') continue;  // re-handled next iteration
          } else {
            return out;
          }
        }
        continue;
      }
      return out;
    }
    out.kind = 'f';
    out.name = name;
    out.name_off = nb;
    out.lp = lp;
    out.rp = rp;
    return out;
  }
  return out;
}

/// Classify the '{' at offset `b`.
BraceInfo classify_brace(const FileIR& ir, std::size_t b) {
  const std::string& t = ir.text;
  BraceInfo out;
  const std::size_t ss = stmt_start_of(ir, b);
  const std::string stmt = ss < b ? t.substr(ss, b - ss) : "";
  const std::string first = first_token(stmt);
  if (first == "namespace" || first == "extern") {
    out.kind = 'n';
    return out;
  }
  if (first == "else" || first == "do" || first == "try") {
    out.kind = 'b';
    return out;
  }
  if (first == "enum" || first == "union") {
    out.kind = 'o';
    return out;
  }
  const bool has_paren = stmt.find('(') != npos;
  const bool has_eq = stmt.find('=') != npos;
  if (!has_paren && !has_eq &&
      (first == "class" || first == "struct" ||
       (first == "template" && (contains_token(stmt, "class") ||
                                contains_token(stmt, "struct"))))) {
    out.kind = 'c';
    // Name: the identifier after the last class/struct keyword.
    std::vector<Ident> ids = identifiers(stmt);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if ((ids[i].text == "class" || ids[i].text == "struct") &&
          i + 1 < ids.size())
        out.name = ids[i + 1].text;
    }
    out.name_off = ss;
    return out;
  }
  std::size_t p = prev_nonspace(t, b);
  for (int guard = 0; guard < 64; ++guard) {
    if (p == npos) {
      out.kind = 'b';
      return out;
    }
    const char pc = t[p];
    if (pc == ';' || pc == '{') {
      out.kind = 'b';
      return out;
    }
    if (pc == ']') {  // `[&] {` — capture list with no parameter list
      out.kind = 'f';
      out.is_lambda = true;
      std::size_t lb = match_back(t, p, '[', ']');
      out.cap_open = lb;
      out.cap_close = p;
      out.name_off = lb == npos ? p : lb;
      return out;
    }
    if (pc == ')') return analyze_paren_group(t, p);
    if (pc == '}') {
      // Possibly the last ctor-init entry is a brace-init: `: a_{1} {`.
      std::size_t ob = match_back(t, p, '{', '}');
      if (ob != npos) {
        std::size_t en = prev_nonspace(t, ob);
        if (en != npos && ident_char(t[en])) {
          std::size_t eb;
          token_ending_at(t, en, &eb);
          std::size_t q = skip_qualifiers_back(t, eb);
          if (q != npos &&
              (t[q] == ',' || (t[q] == ':' && (q == 0 || t[q - 1] != ':')))) {
            std::size_t prev = prev_nonspace(t, q);
            if (prev != npos && t[prev] == ')')
              return analyze_paren_group(t, prev);
          }
        }
      }
      out.kind = 'b';
      return out;
    }
    if (ident_char(pc)) {
      static const std::set<std::string> kQual = {
          "const", "noexcept", "override", "final", "mutable", "try"};
      std::size_t tb;
      const std::string tok = token_ending_at(t, p, &tb);
      if (kQual.count(tok) != 0) {
        p = prev_nonspace(t, tb);
        continue;
      }
      // Trailing return type `-> Ns::Type<...>`? Scan back through the type
      // to an arrow; if found, resume the qualifier walk before it.
      std::size_t q = tb;
      bool arrow = false;
      for (int g2 = 0; g2 < 32; ++g2) {
        std::size_t pp = prev_nonspace(t, q);
        if (pp == npos) break;
        if (t[pp] == '>' && pp > 0 && t[pp - 1] == '-') {
          arrow = true;
          q = pp - 1;
          break;
        }
        if (t[pp] == ':' && pp > 0 && t[pp - 1] == ':') {
          std::size_t qq = prev_nonspace(t, pp - 1);
          if (qq == npos || !ident_char(t[qq])) break;
          token_ending_at(t, qq, &q);
          continue;
        }
        if (t[pp] == '>') {
          std::size_t lt = match_back(t, pp, '<', '>');
          if (lt == npos) break;
          std::size_t qq = prev_nonspace(t, lt);
          if (qq == npos || !ident_char(t[qq])) break;
          token_ending_at(t, qq, &q);
          continue;
        }
        break;
      }
      if (arrow) {
        p = prev_nonspace(t, q);
        continue;
      }
      out.kind = 'o';  // brace-init / `return Foo{...}`
      return out;
    }
    out.kind = 'o';
    return out;
  }
  return out;
}

/// Extract data-member declarations from a class body [open, close].
void extract_members(const FileIR& ir, ClassIR& cls, std::size_t open,
                     std::size_t close) {
  static const std::set<std::string> kSkipFirst = {
      "public", "private", "protected", "using", "friend",   "typedef",
      "static", "template", "enum",     "class", "struct",   "namespace",
      "operator", "virtual", "explicit", "constexpr", "APN_CHECK_ACCESS"};
  const std::string& t = ir.text;
  std::string acc;
  std::size_t acc_off = npos;
  for (std::size_t i = open + 1; i < close; ++i) {
    const char c = t[i];
    if (c == '{') {
      std::size_t j = match_fwd(t, i, '{', '}');
      if (j == npos || j > close) return;
      if (acc.find('(') != npos) acc.clear(), acc_off = npos;  // member fn body
      i = j;  // nested class bodies are handled by their own scope
      continue;
    }
    if (c == ';') {
      if (acc.find('(') == npos && acc_off != npos) {
        std::string a = acc;
        // Drop access-specifier labels glued to the front ("public: int x").
        for (;;) {
          std::string f = first_token(a);
          std::size_t colon = a.find(':');
          if ((f == "public" || f == "private" || f == "protected") &&
              colon != npos) {
            a = a.substr(colon + 1);
          } else {
            break;
          }
        }
        const std::string f = first_token(a);
        if (!f.empty() && kSkipFirst.count(f) == 0) {
          Decl d;
          if (parse_decl_chunk(a, 0, d)) {
            // Line of the *name*, so suppressions sit next to the member.
            std::size_t name_pos = t.rfind(d.name, i);
            d.line = ir.line_of(name_pos == npos ? acc_off : name_pos);
            cls.members.push_back(std::move(d));
          }
        }
      }
      acc.clear();
      acc_off = npos;
      continue;
    }
    if (acc_off == npos && c != ' ' && c != '\n' && c != '\t') acc_off = i;
    acc.push_back(c);
  }
}

void build_scopes(FileIR& ir) {
  const std::string& t = ir.text;
  std::vector<Scope> stack;
  std::vector<std::pair<std::size_t, std::size_t>> fn_params;  // per function
  for (std::size_t i = 0; i < t.size(); ++i) {
    const char c = t[i];
    if (c == '{') {
      BraceInfo info = classify_brace(ir, i);
      Scope s{info.kind, i, -1};
      if (info.kind == 'f') {
        FunctionIR fn;
        fn.name = info.name;
        fn.is_lambda = info.is_lambda;
        fn.cap_open = info.cap_open;
        fn.cap_close = info.cap_close;
        fn.line = ir.line_of(info.name_off);
        fn.body_begin = i;
        fn.body_end = t.size() > 0 ? t.size() - 1 : 0;
        if (!info.name.empty()) {
          std::size_t ss = stmt_start_of(ir, info.name_off);
          if (ss < info.name_off)
            fn.decl_text = t.substr(ss, info.name_off - ss);
        }
        if (info.lp != npos && info.rp != npos) {
          parse_params(ir, info.lp, info.rp, fn.params);
          fn.locals = fn.params;
        }
        // Return type naming Coro: either in the declaration text before
        // the name (`sim::Coro run(...)`) or in the tail between the
        // parameter list / capture list and the body ('{') — the trailing
        // return home of lambdas (`[](...) -> sim::Coro {`).
        std::size_t tail_b = info.rp != npos          ? info.rp + 1
                             : info.cap_close != npos ? info.cap_close + 1
                                                      : npos;
        const bool tail_coro =
            tail_b != npos && tail_b < i &&
            contains_token(t.substr(tail_b, i - tail_b), "Coro");
        fn.returns_coro = tail_coro || contains_token(fn.decl_text, "Coro");
        s.index = static_cast<int>(ir.functions.size());
        ir.functions.push_back(std::move(fn));
      } else if (info.kind == 'c') {
        ClassIR cls;
        cls.name = info.name;
        cls.line = ir.line_of(info.name_off);
        cls.body_begin = i;
        cls.body_end = t.size() > 0 ? t.size() - 1 : 0;
        s.index = static_cast<int>(ir.classes.size());
        ir.classes.push_back(std::move(cls));
      }
      stack.push_back(s);
    } else if (c == '}') {
      if (stack.empty()) continue;
      Scope s = stack.back();
      stack.pop_back();
      if (s.kind == 'f') {
        ir.functions[static_cast<std::size_t>(s.index)].body_end = i;
      } else if (s.kind == 'c') {
        ir.classes[static_cast<std::size_t>(s.index)].body_end = i;
        extract_members(ir, ir.classes[static_cast<std::size_t>(s.index)],
                        s.open, i);
      }
    }
  }
}

/// Index of the innermost function whose body contains `off`, or -1.
int innermost_function(const FileIR& ir, std::size_t off) {
  // Functions are recorded in body_begin order; walk back from the last
  // candidate until one actually encloses the offset.
  int best = -1;
  for (std::size_t i = ir.functions.size(); i-- > 0;) {
    const FunctionIR& f = ir.functions[i];
    if (f.body_begin < off && off < f.body_end) {
      best = static_cast<int>(i);
      break;
    }
  }
  return best;
}

void build_calls(FileIR& ir) {
  static const std::set<std::string> kNotCall = {
      "if",        "for",       "while",     "switch",      "return",
      "co_return", "co_yield",  "co_await",  "sizeof",      "alignof",
      "new",       "delete",    "catch",     "throw",       "noexcept",
      "decltype",  "alignas",   "requires",  "template",    "operator",
      "assert",    "defined",   "static_assert"};
  const std::string& t = ir.text;
  for (const Ident& id : identifiers(t)) {
    if (id.text == "co_await") {
      int fi = innermost_function(ir, id.off);
      if (fi >= 0)
        ir.functions[static_cast<std::size_t>(fi)].co_awaits.push_back(id.off);
      continue;
    }
    if (kNotCall.count(id.text) != 0) continue;
    std::size_t after = next_nonspace(t, id.off + id.text.size());
    if (after == npos || t[after] != '(') continue;
    std::size_t close = match_fwd(t, after, '(', ')');
    if (close == npos) continue;
    int fi = innermost_function(ir, id.off);
    if (fi < 0) continue;
    Call call;
    call.callee = id.text;
    call.off = id.off;
    call.close = close;
    call.member_access = member_access_before(t, id.off);
    call.line = ir.line_of(id.off);
    ir.functions[static_cast<std::size_t>(fi)].calls.push_back(std::move(call));
  }
}

/// Best-effort single-token-type local declarations (`Time t = ...`).
void build_locals(FileIR& ir) {
  const std::string& t = ir.text;
  for (std::size_t s : ir.stmt_starts) {
    int fi = innermost_function(ir, s);
    if (fi < 0) continue;
    std::size_t p = s;
    std::string tok1;
    for (int g = 0; g < 4; ++g) {  // skip cv/storage tokens
      if (p >= t.size() || !ident_char(t[p]) ||
          std::isdigit(static_cast<unsigned char>(t[p])) != 0)
        break;
      std::size_t e = p;
      while (e < t.size() && ident_char(t[e])) ++e;
      std::string tok = t.substr(p, e - p);
      if (tok == "const" || tok == "constexpr" || tok == "static" ||
          tok == "auto") {
        std::size_t nx = next_nonspace(t, e);
        if (nx == npos) break;
        p = nx;
        continue;
      }
      tok1 = tok;
      p = e;
      break;
    }
    if (tok1.empty()) continue;
    std::size_t n1 = next_nonspace(t, p);
    if (n1 == npos || !ident_char(t[n1]) ||
        std::isdigit(static_cast<unsigned char>(t[n1])) != 0)
      continue;
    std::size_t e1 = n1;
    while (e1 < t.size() && ident_char(t[e1])) ++e1;
    std::size_t n2 = next_nonspace(t, e1);
    if (n2 == npos) continue;
    const char c2 = t[n2];
    if (c2 != '=' && c2 != ';' && c2 != '(' && c2 != '{') continue;
    Decl d;
    d.type_text = tok1;
    d.name = t.substr(n1, e1 - n1);
    d.line = ir.line_of(n1);
    ir.functions[static_cast<std::size_t>(fi)].locals.push_back(std::move(d));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FileIR methods + parse()
// ---------------------------------------------------------------------------

int FileIR::line_of(std::size_t off) const {
  auto it = std::upper_bound(line_starts.begin(), line_starts.end(), off);
  return static_cast<int>(it - line_starts.begin());
}

int FileIR::stmt_line_of(std::size_t off) const {
  return line_of(stmt_start_of(*this, off));
}

bool FileIR::allowed(int line, int stmt_line, const std::string& rule) const {
  for (int l : {line, line - 1, stmt_line, stmt_line - 1}) {
    if (l >= 1 && allows.count({l, rule}) != 0) return true;
  }
  return false;
}

FileIR parse(const std::string& path, const std::string& source) {
  FileIR ir;
  ir.path = path;
  ir.raw = source;
  strip_into(source, ir);
  build_stmt_index(ir);
  build_scopes(ir);
  build_calls(ir);
  build_locals(ir);
  return ir;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

namespace {

// ---- rule: ptr-key-iter ----------------------------------------------------

void rule_ptr_key_iter(const FileIR& ir, const std::vector<Ident>& ids,
                       std::vector<Finding>& out) {
  static const std::set<std::string> kAssoc = {"map", "unordered_map", "set",
                                               "unordered_set"};
  const std::string& t = ir.text;
  std::set<std::string> suspects;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (kAssoc.count(ids[i].text) == 0) continue;
    std::size_t lt = next_nonspace(t, ids[i].off + ids[i].text.size());
    if (lt == npos || t[lt] != '<') continue;
    std::size_t gt = match_template(t, lt);
    if (gt == npos) continue;
    std::size_t key_end = gt;
    int depth = 0;
    for (std::size_t j = lt + 1; j < gt; ++j) {
      if (t[j] == '<') ++depth;
      else if (t[j] == '>') --depth;
      else if (t[j] == ',' && depth == 0) {
        key_end = j;
        break;
      }
    }
    std::string key = t.substr(lt + 1, key_end - lt - 1);
    if (key.find('*') == npos) continue;
    std::size_t name_off = next_nonspace(t, gt + 1);
    // Reference/pointer declarators sit between the template and the
    // variable name (`const std::map<Node*, int>& weights`).
    while (name_off != npos &&
           (t[name_off] == '&' || t[name_off] == '*'))
      name_off = next_nonspace(t, name_off + 1);
    if (name_off == npos || !ident_char(t[name_off])) continue;
    std::size_t e = name_off;
    while (e < t.size() && ident_char(t[e])) ++e;
    suspects.insert(t.substr(name_off, e - name_off));
  }
  if (suspects.empty()) return;
  for (const Ident& id : ids) {
    if (suspects.count(id.text) == 0) continue;
    std::size_t before = prev_nonspace(t, id.off);
    if (before != npos && t[before] == ':' &&
        (before == 0 || t[before - 1] != ':')) {
      add(out, ir, id.off, "ptr-key-iter",
          "range-for over pointer-keyed container '" + id.text +
              "': iteration order is ASLR-dependent");
      continue;
    }
    std::size_t dot = next_nonspace(t, id.off + id.text.size());
    if (dot == npos || t[dot] != '.') continue;
    std::size_t m = next_nonspace(t, dot + 1);
    if (m == npos) continue;
    std::size_t me = m;
    while (me < t.size() && ident_char(t[me])) ++me;
    std::string method = t.substr(m, me - m);
    if (method == "begin" || method == "cbegin" || method == "rbegin") {
      add(out, ir, id.off, "ptr-key-iter",
          "iteration over pointer-keyed container '" + id.text +
              "': iteration order is ASLR-dependent");
    }
  }
}

// ---- rule: detached-coro ---------------------------------------------------

/// Capture-list text of a lambda FunctionIR, whitespace-stripped ("" when
/// the capture brackets are unknown or empty).
std::string capture_text(const FileIR& ir, const FunctionIR& f) {
  if (!f.is_lambda || f.cap_open == npos || f.cap_close == npos ||
      f.cap_close <= f.cap_open + 1)
    return "";
  std::string cap =
      ir.text.substr(f.cap_open + 1, f.cap_close - f.cap_open - 1);
  cap.erase(std::remove_if(cap.begin(), cap.end(),
                           [](char c) {
                             return c == ' ' || c == '\n' || c == '\t';
                           }),
            cap.end());
  return cap;
}

void rule_detached_coro(const FileIR& ir, std::vector<Finding>& out) {
  // v4: works off the scope tree (is_lambda + returns_coro) instead of
  // token-walking back from a `-> Coro` arrow, so template lambdas and
  // multi-line signatures are covered and strings/comments can't confuse
  // the match.
  for (const FunctionIR& f : ir.functions) {
    if (!f.is_lambda || !f.returns_coro) continue;
    if (capture_text(ir, f).empty()) continue;  // repo idiom: params own it
    add(out, ir, f.cap_open, "detached-coro",
        "capturing lambda returning a coroutine: captures die with the "
        "lambda temporary while the frame lives on; pass state as "
        "parameters instead");
  }
}

// ---- rules: coroutine suspension safety ------------------------------------
//
// Shared helpers for coro-ref-param / coro-local-escape / coro-stale-time.
// All three reason about what may legally cross a co_await: only state owned
// by the coroutine frame itself (value parameters, locals read before the
// suspension or refreshed after it). See docs/CORRECTNESS.md, "Coroutine
// lifetime discipline".

/// End of the statement containing the co_await at `aw`: the first ';' or
/// '{' after it. Uses *within* the suspension's own statement are safe —
/// the caller/arguments are still alive at the moment of first suspend.
std::size_t suspension_boundary(const FileIR& ir, std::size_t aw) {
  const std::string& t = ir.text;
  std::size_t b = aw;
  while (b < t.size() && t[b] != ';' && t[b] != '{') ++b;
  return b;
}

/// First co_await of `f` strictly after `off`, or npos. co_awaits are
/// collected in text order, so a forward scan finds the earliest.
std::size_t first_await_after(const FunctionIR& f, std::size_t off) {
  for (std::size_t aw : f.co_awaits)
    if (aw > off) return aw;
  return npos;
}

/// True when the identifier at `id` is a member access (`obj.id` / `o->id`).
bool is_member_use(const std::string& t, const Ident& id) {
  std::size_t p = prev_nonspace(t, id.off);
  if (p == npos) return false;
  if (t[p] == '.') return true;
  return t[p] == '>' && p > 0 && t[p - 1] == '-';
}

void rule_coro_ref_param(const FileIR& ir, const std::vector<Ident>& ids,
                         std::vector<Finding>& out) {
  const std::string& t = ir.text;
  for (const FunctionIR& f : ir.functions) {
    if (!f.returns_coro || f.co_awaits.empty()) continue;
    const std::size_t bnd = suspension_boundary(ir, f.co_awaits.front());
    for (const Decl& p : f.params) {
      // References only: pointer parameters are the sanctioned spelling for
      // caller-managed lifetime (mirrored by the runtime oracle's tests).
      if (p.type_text.find('&') == npos) continue;
      for (const Ident& id : ids) {
        if (id.off <= bnd) continue;
        if (id.off >= f.body_end) break;
        if (id.text != p.name || is_member_use(t, id)) continue;
        add(out, ir, id.off, "coro-ref-param",
            "reference parameter '" + p.name +
                "' of a coroutine read after a suspension point: the "
                "caller's argument may be gone by resume; take it by value "
                "(copied into the frame) or as a pointer whose lifetime the "
                "caller guarantees");
        break;  // one finding per parameter
      }
    }
  }
}

void rule_coro_local_escape(const FileIR& ir, const std::vector<Ident>& ids,
                            const ProjectContext& ctx,
                            std::vector<Finding>& out) {
  // Sinks that store a callable, message or handle beyond the current
  // statement: the event queue (at/after/schedule_resume/resume_*), links
  // and channels (send/post).
  static const std::set<std::string> kSinks = {
      "at",   "after", "schedule_resume", "resume_at",
      "resume_after", "send", "post"};
  const std::string& t = ir.text;

  // `&ident` in address-of position (after '(', ',', '?', ':', '=' — not a
  // binary AND) inside [begin, end) where ident names a frame local of `f`.
  auto scan_addr_of = [&](const FunctionIR& f, std::size_t begin,
                          std::size_t end, const std::string& what) {
    std::set<std::string> local_names;
    for (const Decl& d : f.locals) local_names.insert(d.name);
    for (const Ident& id : ids) {
      if (id.off < begin) continue;
      if (id.off >= end) break;
      if (local_names.count(id.text) == 0) continue;
      std::size_t amp = prev_nonspace(t, id.off);
      if (amp == npos || t[amp] != '&') continue;
      if (amp > 0 && t[amp - 1] == '&') continue;  // '&&' is not address-of
      std::size_t before = prev_nonspace(t, amp);
      if (before == npos) continue;
      const char b = t[before];
      if (b != '(' && b != ',' && b != '?' && b != ':' && b != '=') continue;
      add(out, ir, amp, "coro-local-escape",
          "address of coroutine frame local '" + id.text + "' escapes into " +
              what +
              ": it can be dereferenced after this frame advanced past the "
              "local's scope or died; pass a copy or owner-managed storage");
    }
  };

  for (const FunctionIR& f : ir.functions) {
    if (!f.returns_coro) continue;
    for (const Call& c : f.calls) {
      const bool sink = kSinks.count(c.callee) != 0;
      const bool spawn = ctx.coro_fns.count(c.callee) != 0 && !c.member_access;
      if (!sink && !spawn) continue;
      scan_addr_of(f, c.off, c.close,
                   sink ? "'" + c.callee + "(...)'"
                        : "spawned coroutine '" + c.callee + "'");
      if (!sink) continue;
      // By-reference lambda captures handed to a sink: the callback can run
      // after this frame has moved on. Value captures ([=], [x]) and
      // [this] (the owning object outlives its own event) are fine.
      for (const FunctionIR& g : ir.functions) {
        if (!g.is_lambda || g.cap_open == npos) continue;
        if (g.cap_open <= c.off || g.cap_open >= c.close) continue;
        const std::string cap = capture_text(ir, g);
        if (cap.find('&') == npos) continue;
        add(out, ir, g.cap_open, "coro-local-escape",
            "by-reference lambda capture scheduled via '" + c.callee +
                "(...)' from a coroutine: the callback can run after this "
                "frame has suspended or died; capture by value");
      }
    }
    // Immediately-invoked coroutine lambdas spawned from inside this
    // coroutine: `[](T* p) -> sim::Coro {...}(&local)`.
    for (const FunctionIR& g : ir.functions) {
      if (!g.is_lambda || !g.returns_coro) continue;
      if (g.body_begin <= f.body_begin || g.body_end >= f.body_end) continue;
      std::size_t open = next_nonspace(t, g.body_end + 1);
      if (open == npos || t[open] != '(') continue;
      std::size_t close = match_fwd(t, open, '(', ')');
      if (close == npos) continue;
      scan_addr_of(f, open, close, "a spawned coroutine lambda");
    }
  }
}

void rule_coro_stale_time(const FileIR& ir, const std::vector<Ident>& ids,
                          const ProjectContext& ctx,
                          std::vector<Finding>& out) {
  static const std::set<std::string> kCellReads = {"get", "sample", "peek"};
  const std::string& t = ir.text;
  for (const FunctionIR& f : ir.functions) {
    if (!f.returns_coro || f.co_awaits.empty()) continue;
    for (const Call& c : f.calls) {
      bool time_read = false;
      std::string source;
      if (c.callee == "now") {
        time_read = true;
        source = "now()";
      } else if (c.member_access && kCellReads.count(c.callee) != 0) {
        // Resolve the object: `cell.get()` / `cell->get()` where `cell` is
        // a known StateCell member.
        std::size_t dot = prev_nonspace(t, c.off);
        if (dot == npos) continue;
        std::size_t ob = dot;
        if (t[dot] == '.') ob = prev_nonspace(t, dot);
        else if (t[dot] == '>' && dot > 0 && t[dot - 1] == '-')
          ob = prev_nonspace(t, dot - 1);
        else
          continue;
        if (ob == npos || !ident_char(t[ob])) continue;
        std::size_t obb;
        const std::string obj = token_ending_at(t, ob, &obb);
        if (ctx.statecell_members.count(obj) == 0) continue;
        time_read = true;
        source = "StateCell '" + obj + "'";
      }
      if (!time_read) continue;
      // Cached into a variable? `Time t0 = sim.now();` / `t0 = cell.get();`
      // — the assigned name is the last identifier before the '='.
      const std::size_t ss = stmt_start_of(ir, c.off);
      if (ss >= c.off) continue;
      const std::string prefix = t.substr(ss, c.off - ss);
      const std::size_t eq = prefix.find('=');
      if (eq == npos || (eq + 1 < prefix.size() && prefix[eq + 1] == '='))
        continue;
      std::string name;
      for (const Ident& pid : identifiers(prefix.substr(0, eq)))
        name = pid.text;
      if (name.empty()) continue;
      const std::size_t aw = first_await_after(f, c.off);
      if (aw == npos) continue;
      const std::size_t bnd = suspension_boundary(ir, aw);
      for (const Ident& id : ids) {
        if (id.off <= bnd) continue;
        if (id.off >= f.body_end) break;
        if (id.text != name || is_member_use(t, id)) continue;
        // Exempt statements that re-read the clock / re-touch the cell:
        // `Time dt = sim.now() - start;` is elapsed-time math, not a stale
        // read.
        const std::size_t uss = stmt_start_of(ir, id.off);
        std::size_t usend = id.off;
        while (usend < t.size() && t[usend] != ';' && t[usend] != '{')
          ++usend;
        const std::string stmt = t.substr(uss, usend - uss);
        if (c.callee == "now") {
          if (contains_token(stmt, "now")) continue;
        } else {
          std::size_t dot2 = prev_nonspace(t, c.off);
          std::size_t ob2 = t[dot2] == '.' ? prev_nonspace(t, dot2)
                                           : prev_nonspace(t, dot2 - 1);
          std::size_t obb2;
          const std::string obj2 = token_ending_at(t, ob2, &obb2);
          if (contains_token(stmt, obj2)) continue;
        }
        add(out, ir, id.off, "coro-stale-time",
            "'" + name + "' caches " + source +
                " from before a co_await and is reused after resume: "
                "simulated time has advanced across the suspension; re-read "
                "after resuming");
        break;  // one finding per cached read
      }
    }
  }
}

// ---- rule: unit-mix --------------------------------------------------------

void rule_unit_mix(const FileIR& ir, const std::vector<Ident>& ids,
                   std::vector<Finding>& out) {
  const std::string& t = ir.text;
  std::set<std::string> time_vars, byte_vars;
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    const bool is_time = ids[i].text == "Time";
    const bool is_bytes = ids[i].text == "Bytes";
    if (!is_time && !is_bytes) continue;
    // Require the next identifier to follow directly (only space/&/* between)
    // so `Time` in template args or comments does not pollute the sets.
    std::size_t gap_b = ids[i].off + ids[i].text.size();
    bool direct = true;
    for (std::size_t j = gap_b; j < ids[i + 1].off; ++j) {
      const char c = t[j];
      if (c != ' ' && c != '\n' && c != '\t' && c != '&' && c != '*') {
        direct = false;
        break;
      }
    }
    if (!direct) continue;
    const std::string& name = ids[i + 1].text;
    static const std::set<std::string> kNotVar = {"const", "operator"};
    if (kNotVar.count(name) != 0) continue;
    (is_time ? time_vars : byte_vars).insert(name);
  }
  auto is_byte_name = [&](const std::string& tok) {
    return byte_vars.count(tok) != 0 || tok == "bytes" ||
           ends_with(tok, "_bytes") || tok.rfind("bytes_", 0) == 0;
  };
  // Drop ambiguous names (declared as both).
  for (const std::string& n : byte_vars)
    if (time_vars.count(n) != 0) time_vars.erase(n);
  if (time_vars.empty()) return;

  enum class Cat { kNone, kTime, kByte, kLit };
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const char c = t[i];
    if (c != '+' && c != '-') continue;
    if (t[i + 1] == c || (i > 0 && t[i - 1] == c)) continue;  // ++ / --
    if (c == '-' && t[i + 1] == '>') continue;                // ->
    const bool compound = t[i + 1] == '=';
    // Left operand.
    std::size_t lp = prev_nonspace(t, i);
    if (lp == npos || !ident_char(t[lp])) continue;
    std::size_t lb;
    const std::string tokL = token_ending_at(t, lp, &lb);
    Cat catL = Cat::kNone;
    if (std::isdigit(static_cast<unsigned char>(tokL[0])) != 0) {
      const char last = tokL.back();
      if (last == 'e' || last == 'E') continue;  // float exponent `1e-9`
      if (tokL == "0" || tokL == "1") continue;
      std::size_t before = prev_nonspace(t, lb);
      if (before != npos && (t[before] == '*' || t[before] == '/' ||
                             t[before] == '.'))
        continue;  // scaled literal (`n * t`) or float fraction
      catL = Cat::kLit;
    } else if (time_vars.count(tokL) != 0) {
      catL = Cat::kTime;
    } else if (is_byte_name(tokL)) {
      catL = Cat::kByte;
    }
    if (catL == Cat::kNone) continue;
    // Right operand.
    std::size_t rp = next_nonspace(t, i + (compound ? 2 : 1));
    if (rp == npos || !ident_char(t[rp])) continue;
    std::size_t re = rp;
    while (re < t.size() && ident_char(t[re])) ++re;
    const std::string tokR = t.substr(rp, re - rp);
    Cat catR = Cat::kNone;
    if (std::isdigit(static_cast<unsigned char>(tokR[0])) != 0) {
      if (tokR == "0" || tokR == "1") continue;
      std::size_t after = next_nonspace(t, re);
      if (after != npos && (t[after] == '*' || t[after] == '/' ||
                            t[after] == '.' || t[after] == 'e'))
        continue;  // scaled literal (`6 * units::us(8)`) or float
      catR = Cat::kLit;
    } else {
      std::size_t after = next_nonspace(t, re);
      if (after != npos && (t[after] == '(' || t[after] == ':')) continue;
      if (time_vars.count(tokR) != 0) catR = Cat::kTime;
      else if (is_byte_name(tokR)) catR = Cat::kByte;
    }
    if (catR == Cat::kNone) continue;
    const bool bad =
        (catL == Cat::kTime && (catR == Cat::kByte || catR == Cat::kLit)) ||
        (catR == Cat::kTime && (catL == Cat::kByte || catL == Cat::kLit));
    if (!bad) continue;
    const char* what =
        (catL == Cat::kByte || catR == Cat::kByte)
            ? "mixes a Time variable with a byte count"
            : "mixes a Time variable with a bare integer literal";
    add(out, ir, i, "unit-mix",
        std::string("'") + tokL + " " + (compound ? std::string(1, c) + "=" :
        std::string(1, c)) + " " + tokR + "' " + what +
            "; Time is picoseconds — convert via units:: helpers");
  }
}

// ---- rule: check-coverage --------------------------------------------------

bool state_like_member(const Decl& m) {
  static const std::set<std::string> kDisqualify = {
      "const",    "static",    "constexpr", "StateCell", "Track",
      "Counter",  "Resource",  "Simulator", "UniqueFn",  "Fn",
      "function", "Coro",      "Future",    "Signal",    "Gate",
      "CreditPool", "Channel", "Queue",   "Stream",    "string",
      "string_view", "mutable"};
  static const std::set<std::string> kState = {
      "int",      "unsigned", "long",     "short",    "bool",
      "size_t",   "int8_t",   "int16_t",  "int32_t",  "int64_t",
      "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "Time",
      "Bytes",    "Rate",     "double",   "float",    "vector",
      "deque",    "map",      "unordered_map", "set", "unordered_set",
      "list",     "array",    "optional"};
  if (m.type_text.find('*') != npos || m.type_text.find('&') != npos)
    return false;
  bool stateish = false;
  for (const Ident& id : identifiers(m.type_text)) {
    if (kDisqualify.count(id.text) != 0) return false;
    if (kState.count(id.text) != 0) stateish = true;
  }
  return stateish;
}

void rule_check_coverage(const FileIR& ir, const ProjectContext& ctx,
                         std::vector<Finding>& out) {
  if (!(ends_with(ir.path, ".hpp") || ends_with(ir.path, ".h") ||
        ends_with(ir.path, ".hh")))
    return;
  if (!path_contains(ir.path, "src/")) return;
  for (const ClassIR& cls : ir.classes) {
    auto instrumented = [&](const Decl& m) {
      return m.type_text.find("StateCell") != npos ||
             ctx.instrumented.count(m.name) != 0 ||
             ctx.instrumented_scoped.count(cls.name + "::" + m.name) != 0;
    };
    bool participates = ctx.instrumented_classes.count(cls.name) != 0;
    for (const Decl& m : cls.members) {
      if (instrumented(m)) {
        participates = true;
        break;
      }
    }
    if (!participates) continue;
    for (const Decl& m : cls.members) {
      if (instrumented(m)) continue;
      if (!state_like_member(m)) continue;
      add_at_line(out, ir, m.line, "check-coverage",
                  "member '" + cls.name + "::" + m.name + "' (" + m.type_text +
                      ") is mutable sim state in a race-checked class but is "
                      "never instrumented (StateCell / APN_CHECK_ACCESS)");
    }
  }
}

// True when [b, e) of `t`, ignoring whitespace, is a single numeric literal:
// digits plus the usual '.'/'e'/'x'/'p' spellings, digit separators, a sign
// inside an exponent and integer/float suffixes. Identifiers never qualify
// (they cannot start with a digit), so `units::ns(cfg.delay)` passes while
// `units::ns(400)` does not.
bool pure_numeric_literal(const std::string& t, std::size_t b, std::size_t e) {
  while (b < e && std::isspace(static_cast<unsigned char>(t[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(t[e - 1]))) --e;
  if (b >= e) return false;
  if (!std::isdigit(static_cast<unsigned char>(t[b]))) return false;
  for (std::size_t i = b; i < e; ++i) {
    const char c = t[i];
    if (std::isalnum(static_cast<unsigned char>(c))) continue;
    if (c == '.' || c == '\'') continue;
    if ((c == '+' || c == '-') && i > b &&
        (t[i - 1] == 'e' || t[i - 1] == 'E' || t[i - 1] == 'p' ||
         t[i - 1] == 'P'))
      continue;
    return false;
  }
  return true;
}

// Calibration constants belong in the hardware-profile structs
// (core/params.hpp, gpu/arch.hpp, pcie/link.hpp) where src/hw/profile.cpp
// versions them per generation. A bare `units::ns(400)` or `Rate(1.5e9)`
// inside model code is an unnamed calibration literal: invisible to
// --hw-profile, untracked by docs/HARDWARE.md, and silently shared by every
// profile. Flags unit-helper and Rate constructor calls whose argument is a
// raw numeric literal, inside function bodies only — namespace-scope named
// constants and the profile-definition headers stay legal.
void rule_calibration_literal(const FileIR& ir, const std::vector<Ident>& ids,
                              std::vector<Finding>& out) {
  static const std::set<std::string> kUnitHelpers = {
      "ps", "ns", "us", "ms", "sec", "KBps", "MBps", "GBps", "Gbps"};
  const std::string& t = ir.text;
  for (const FunctionIR& f : ir.functions) {
    for (const Ident& id : ids) {
      if (id.off <= f.body_begin) continue;
      if (id.off >= f.body_end) break;
      std::string what;
      if (id.text == "Rate") {
        what = "Rate";
      } else if (kUnitHelpers.count(id.text) != 0) {
        // Only the units:: helpers — a bare `ns(...)` is some other function.
        std::size_t p = prev_nonspace(t, id.off);
        if (p == npos || p == 0 || t[p] != ':' || t[p - 1] != ':') continue;
        std::size_t q = prev_nonspace(t, p - 1);
        if (q == npos || token_ending_at(t, q) != "units") continue;
        what = "units::" + id.text;
      } else {
        continue;
      }
      std::size_t open = next_nonspace(t, id.off + id.text.size());
      if (open == npos || t[open] != '(') continue;
      std::size_t close = open + 1;
      int depth = 1;
      while (close < t.size() && depth > 0) {
        if (t[close] == '(') ++depth;
        else if (t[close] == ')') --depth;
        ++close;
      }
      if (depth != 0) continue;
      if (!pure_numeric_literal(t, open + 1, close - 1)) continue;
      add(out, ir, id.off, "calibration-literal",
          "'" + what + "(" + trim(t.substr(open + 1, close - 1 - open - 1)) +
              ")' is an unnamed calibration constant in model code; name it "
              "in the hardware-profile structs (core/params.hpp, "
              "gpu/arch.hpp, pcie/link.hpp) so profiles can version it");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Two-phase analysis entry points
// ---------------------------------------------------------------------------

void scan_declarations(const FileIR& ir, ProjectContext& ctx) {
  const std::string& t = ir.text;
  // APN_CHECK_ACCESS(first_arg, ...) — the last identifier of the first
  // argument is the member name (handles `a.arrived`, `xfer->bytes`). When
  // the owning class is derivable (bare name inside a `Class::method`
  // definition or an inline method within a class body) the entry is scoped
  // to that class so same-named members elsewhere stay independent.
  std::size_t pos = 0;
  while ((pos = t.find("APN_CHECK_ACCESS", pos)) != npos) {
    const std::size_t at = pos;
    std::size_t open = next_nonspace(t, pos + 16);
    pos += 16;
    if (open == npos || t[open] != '(') continue;
    // Skip the macro's own #define.
    std::size_t ls = at;
    while (ls > 0 && t[ls - 1] != '\n') --ls;
    if (t.substr(ls, at - ls).find("#define") != npos) continue;
    std::size_t comma = t.find(',', open);
    std::size_t close = t.find(')', open);
    std::size_t end = std::min(comma, close);
    if (end == npos) continue;
    const std::string arg_text = t.substr(open + 1, end - open - 1);
    std::vector<Ident> arg = identifiers(arg_text);
    if (arg.empty()) continue;
    const std::string name = arg.back().text;
    const bool foreign =
        arg_text.find('.') != npos || arg_text.find("->") != npos;
    std::string owner;
    if (!foreign) {
      // Owner from the enclosing method's `Class::` qualifier...
      int fi = innermost_function(ir, at);
      if (fi >= 0) {
        const std::string& d =
            ir.functions[static_cast<std::size_t>(fi)].decl_text;
        std::string dt = trim(d);
        if (ends_with(dt, "::")) {
          std::vector<Ident> dq = identifiers(dt);
          if (!dq.empty()) owner = dq.back().text;
        }
      }
      // ...or from the enclosing class body (inline method).
      if (owner.empty()) {
        for (const ClassIR& cls : ir.classes) {
          if (cls.body_begin < at && at < cls.body_end && !cls.name.empty())
            owner = cls.name;  // innermost wins: classes nest in open order
        }
      }
    }
    if (foreign || owner.empty()) {
      ctx.instrumented.insert(name);
    } else {
      ctx.instrumented_scoped.insert(owner + "::" + name);
      ctx.instrumented_classes.insert(owner);
    }
  }
  // Coroutine-returning functions: their call sites spawn detached frames
  // (consulted by coro-local-escape).
  for (const FunctionIR& f : ir.functions) {
    if (!f.name.empty() && f.returns_coro) ctx.coro_fns.insert(f.name);
  }
  // StateCell members.
  for (const ClassIR& cls : ir.classes) {
    bool any = false;
    for (const Decl& m : cls.members) {
      if (m.type_text.find("StateCell") != npos) {
        if (cls.name.empty()) ctx.instrumented.insert(m.name);
        else ctx.instrumented_scoped.insert(cls.name + "::" + m.name);
        ctx.statecell_members.insert(m.name);
        any = true;
      }
    }
    if (any && !cls.name.empty()) ctx.instrumented_classes.insert(cls.name);
  }
}

std::vector<Finding> lint_ir(const FileIR& ir, const ProjectContext& ctx) {
  std::vector<Finding> out;
  std::vector<Ident> ids = identifiers(ir.text);

  rule_ptr_key_iter(ir, ids, out);
  rule_detached_coro(ir, out);
  // Suspension-safety rules skip tests/: test code parks frames and threads
  // pointers on purpose, and the runtime frame oracle (--coro-check) covers
  // it dynamically.
  if (!path_contains(ir.path, "tests/")) {
    rule_coro_ref_param(ir, ids, out);
    rule_coro_local_escape(ir, ids, ctx, out);
    rule_coro_stale_time(ir, ids, ctx, out);
  }
  if (!path_contains(ir.path, "common/units")) rule_unit_mix(ir, ids, out);
  rule_check_coverage(ir, ctx, out);
  // Model code only; the profile-definition headers (where the named
  // parameter structs and their presets live) are the one legal home for
  // these literals.
  if ((path_contains(ir.path, "src/core") ||
       path_contains(ir.path, "src/pcie") ||
       path_contains(ir.path, "src/gpu")) &&
      !ends_with(ir.path, "core/params.hpp") &&
      !ends_with(ir.path, "gpu/arch.hpp") &&
      !ends_with(ir.path, "pcie/link.hpp")) {
    rule_calibration_literal(ir, ids, out);
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule, a.col) < std::tie(b.line, b.rule, b.col);
  });
  return out;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& source) {
  FileIR ir = parse(path, source);
  ProjectContext ctx;
  scan_declarations(ir, ctx);
  return lint_ir(ir, ctx);
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

// ---------------------------------------------------------------------------
// SARIF output
// ---------------------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"ptr-key-iter",
       "Iteration over a pointer-keyed container is ASLR-dependent"},
      {"detached-coro",
       "Capturing lambda returning a coroutine: captures dangle after the "
       "call"},
      {"unit-mix",
       "Additive arithmetic mixing Time with byte counts or bare literals"},
      {"check-coverage",
       "Mutable state member of a race-checked class is not instrumented"},
      {"calibration-literal",
       "Unnamed numeric calibration literal in model code; hoist it into "
       "the hardware-profile parameter structs"},
      {"coro-ref-param",
       "Reference parameter of a coroutine read after a suspension point"},
      {"coro-local-escape",
       "Address of a coroutine frame local escapes into a stored callable, "
       "message, or spawned coroutine"},
      {"coro-stale-time",
       "Cached now()/StateCell read from before a co_await reused after "
       "resume"},
  };
  return kRules;
}

std::string format_sarif(const std::vector<Finding>& findings) {
  std::string out;
  out +=
      "{\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"apn-lint\",\n"
      "          \"informationUri\": \"tools/apn-lint/lint.hpp\",\n"
      "          \"rules\": [\n";
  bool first = true;
  for (const RuleInfo& r : rules()) {
    if (!first) out += ",\n";
    first = false;
    out += std::string("            {\"id\": \"") + r.id +
           "\", \"shortDescription\": {\"text\": \"" +
           json_escape(r.summary) + "\"}}";
  }
  out +=
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  first = true;
  for (const Finding& f : findings) {
    if (!first) out += ",\n";
    first = false;
    std::string region = "{\"startLine\": " + std::to_string(f.line);
    if (f.col > 0) {
      region += ", \"startColumn\": " + std::to_string(f.col);
      if (f.end_col > f.col)
        region += ", \"endColumn\": " + std::to_string(f.end_col);
    }
    region += "}";
    out += "        {\"ruleId\": \"" + json_escape(f.rule) +
           "\", \"level\": \"error\", \"message\": {\"text\": \"" +
           json_escape(f.detail) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           json_escape(f.path) + "\"}, \"region\": " + region + "}}]}";
  }
  out +=
      "\n      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Project driver
// ---------------------------------------------------------------------------

bool run_project(const std::vector<std::string>& files,
                 std::vector<Finding>& out, std::string* bad_path) {
  // Phase 1: parse every file and harvest its declarations in file order.
  std::vector<FileIR> irs;
  irs.reserve(files.size());
  ProjectContext ctx;
  for (const std::string& path : files) {
    std::string source;
    if (!read_file(path, source)) {
      if (bad_path != nullptr) *bad_path = path;
      return false;
    }
    irs.push_back(parse(path, source));
    scan_declarations(irs.back(), ctx);
  }
  // Phase 2: rules over each file against the whole-project context.
  for (const FileIR& ir : irs) {
    std::vector<Finding> found = lint_ir(ir, ctx);
    out.insert(out.end(), found.begin(), found.end());
  }
  return true;
}

}  // namespace apn::lint
