#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace reqblock::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------------

constexpr const char* kNoWallclock = "no-wallclock";
constexpr const char* kNoAmbientRng = "no-ambient-rng";
constexpr const char* kNoRawOfstream = "no-raw-ofstream";
constexpr const char* kNoUnorderedSer = "no-unordered-serialization";
constexpr const char* kNoRawFloatFormat = "no-raw-float-format";
constexpr const char* kCheckMacroHygiene = "check-macro-hygiene";

const std::vector<RuleInfo> kRules = {
    {kNoWallclock,
     "wall-clock time sources are forbidden in simulation code",
     "derive every timestamp from SimTime ticks; profiler wall-clock "
     "sites carry // REQB_LINT_ALLOW(no-wallclock): <why>"},
    {kNoAmbientRng,
     "ambient RNG (rand(), <random> engines, random_device) is forbidden",
     "draw from the per-run seeded xoshiro256** stream in util/rng.h so "
     "equal seeds replay byte-identically"},
    {kNoRawOfstream,
     "raw file-output primitives bypass crash-consistent writes",
     "route artifacts through write_file_atomic (util/atomic_file.h) or "
     "the snapshot SnapshotWriter"},
    {kNoUnorderedSer,
     "iterating an unordered container (or a slot map's for_each_unordered "
     "slab walk) inside an emission function leaks hash order into the "
     "output bytes",
     "copy the keys into a std::vector and std::sort before writing, or "
     "keep a deterministically ordered sibling structure"},
    {kNoRawFloatFormat,
     "raw float formatting is locale- and precision-dependent",
     "format every floating-point value with format_double(value, "
     "decimals) from util/strings.h"},
    {kCheckMacroHygiene,
     "side effects inside REQB_DCHECK/REQB_AUDIT disappear when the "
     "macro is compiled out",
     "hoist the mutation out of the macro argument; check-macro "
     "arguments must be pure expressions"},
};

// ---------------------------------------------------------------------------
// FNV-1a 64 (local copy: the tool stays dependency-free on purpose)
// ---------------------------------------------------------------------------

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class Tok {
  kIdent,
  kNumber,      // integral literal
  kFloat,       // floating literal (has '.', exponent, or f suffix)
  kString,      // text is the literal's contents, quotes stripped
  kChar,
  kPunct,
  kInclude,     // text is the include path, brackets/quotes stripped
};

struct Token {
  Tok kind;
  std::string text;
  int line;
};

struct Comment {
  int start_line;
  int end_line;
  bool trails_code;  // something other than whitespace precedes it
  std::string text;
};

struct Lexed {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::set<int> code_lines;          // lines owning at least one token
  std::vector<std::string> raw_lines;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-character punctuators, longest first so max-munch works.
const char* kPuncts[] = {"<<=", ">>=", "...", "->*", "::", "->", "++", "--",
                         "<<",  ">>",  "<=",  ">=",  "==", "!=", "&&", "||",
                         "+=",  "-=",  "*=",  "/=",  "%=", "&=", "|=", "^="};

Lexed lex(const std::string& src) {
  Lexed out;
  {
    std::istringstream ls(src);
    std::string l;
    while (std::getline(ls, l)) out.raw_lines.push_back(l);
  }
  std::size_t i = 0;
  const std::size_t n = src.size();
  int line = 1;
  bool line_has_code = false;

  auto push = [&](Tok kind, std::string text, int at_line) {
    out.tokens.push_back(Token{kind, std::move(text), at_line});
    out.code_lines.insert(at_line);
    line_has_code = true;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      line_has_code = false;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && (src[i + 1] == '/' || src[i + 1] == '*')) {
      const int start = line;
      const bool trails = line_has_code;
      std::string text;
      if (src[i + 1] == '/') {
        i += 2;
        while (i < n && src[i] != '\n') text.push_back(src[i++]);
      } else {
        i += 2;
        while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
          if (src[i] == '\n') ++line;
          text.push_back(src[i++]);
        }
        i = (i + 1 < n) ? i + 2 : n;
      }
      out.comments.push_back(Comment{start, line, trails, std::move(text)});
      continue;
    }
    // Preprocessor directive: special-case #include, swallow the rest of
    // the logical line (honoring backslash continuations) so macro bodies
    // never reach the rules.
    if (c == '#' && !line_has_code) {
      std::size_t j = i + 1;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      std::string word;
      while (j < n && ident_char(src[j])) word.push_back(src[j++]);
      if (word == "include") {
        while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
        if (j < n && (src[j] == '<' || src[j] == '"')) {
          const char close = src[j] == '<' ? '>' : '"';
          std::string path;
          ++j;
          while (j < n && src[j] != close && src[j] != '\n')
            path.push_back(src[j++]);
          push(Tok::kInclude, path, line);
        }
      }
      while (j < n && src[j] != '\n') {
        if (src[j] == '\\' && j + 1 < n && src[j + 1] == '\n') {
          ++line;
          j += 2;
          continue;
        }
        ++j;
      }
      i = j;
      continue;
    }
    // String literals (incl. raw strings).
    if (c == '"' ||
        (c == 'R' && i + 1 < n && src[i + 1] == '"')) {
      const int at = line;
      std::string text;
      if (c == 'R') {
        std::size_t j = i + 2;
        std::string delim;
        while (j < n && src[j] != '(') delim.push_back(src[j++]);
        const std::string closer = ")" + delim + "\"";
        ++j;  // past '('
        const std::size_t end = src.find(closer, j);
        const std::size_t stop = end == std::string::npos ? n : end;
        for (std::size_t k = j; k < stop; ++k) {
          if (src[k] == '\n') ++line;
          text.push_back(src[k]);
        }
        i = end == std::string::npos ? n : end + closer.size();
      } else {
        std::size_t j = i + 1;
        while (j < n && src[j] != '"') {
          if (src[j] == '\\' && j + 1 < n) {
            text.push_back(src[j]);
            text.push_back(src[j + 1]);
            j += 2;
            continue;
          }
          if (src[j] == '\n') ++line;  // unterminated; be forgiving
          text.push_back(src[j++]);
        }
        i = j < n ? j + 1 : n;
      }
      push(Tok::kString, std::move(text), at);
      continue;
    }
    if (c == '\'') {
      std::size_t j = i + 1;
      std::string text;
      while (j < n && src[j] != '\'') {
        if (src[j] == '\\' && j + 1 < n) {
          text.push_back(src[j]);
          text.push_back(src[j + 1]);
          j += 2;
          continue;
        }
        text.push_back(src[j++]);
      }
      push(Tok::kChar, std::move(text), line);
      i = j < n ? j + 1 : n;
      continue;
    }
    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::string text;
      bool is_float = c == '.';
      const bool hex = c == '0' && i + 1 < n &&
                       (src[i + 1] == 'x' || src[i + 1] == 'X');
      std::size_t j = i;
      while (j < n) {
        const char d = src[j];
        if (ident_char(d) || d == '.' || d == '\'') {
          if (d == '.') is_float = true;
          if (!hex && (d == 'e' || d == 'E')) is_float = true;
          if (hex && (d == 'p' || d == 'P')) is_float = true;
          if (!hex && (d == 'f' || d == 'F') && j > i) is_float = true;
          text.push_back(d);
          ++j;
          // Exponent signs: 1e-3, 0x1p+2.
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && j < n &&
              (src[j] == '+' || src[j] == '-') && !hex) {
            text.push_back(src[j++]);
          } else if (hex && (d == 'p' || d == 'P') && j < n &&
                     (src[j] == '+' || src[j] == '-')) {
            text.push_back(src[j++]);
          }
          continue;
        }
        break;
      }
      push(is_float ? Tok::kFloat : Tok::kNumber, std::move(text), line);
      i = j;
      continue;
    }
    // Identifiers.
    if (ident_start(c)) {
      std::string text;
      std::size_t j = i;
      while (j < n && ident_char(src[j])) text.push_back(src[j++]);
      push(Tok::kIdent, std::move(text), line);
      i = j;
      continue;
    }
    // Punctuators, longest first.
    bool matched = false;
    for (const char* p : kPuncts) {
      const std::size_t len = std::char_traits<char>::length(p);
      if (src.compare(i, len, p) == 0) {
        push(Tok::kPunct, p, line);
        i += len;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    push(Tok::kPunct, std::string(1, c), line);
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppressions: REQB_LINT_ALLOW(rule-id[, rule-id]) in a comment covers the
// comment's own lines when it trails code, otherwise the whole statement
// that follows (through the next ';' or '{' so multi-line expressions
// need only one comment).
// ---------------------------------------------------------------------------

std::map<std::string, std::set<int>> suppressed_lines(const Lexed& lx) {
  std::map<std::string, std::set<int>> out;
  for (const Comment& c : lx.comments) {
    std::size_t pos = 0;
    while ((pos = c.text.find("REQB_LINT_ALLOW(", pos)) !=
           std::string::npos) {
      pos += std::char_traits<char>::length("REQB_LINT_ALLOW(");
      const std::size_t close = c.text.find(')', pos);
      if (close == std::string::npos) break;
      std::istringstream rules(c.text.substr(pos, close - pos));
      std::string id;
      while (std::getline(rules, id, ',')) {
        const auto b = id.find_first_not_of(" \t");
        const auto e = id.find_last_not_of(" \t");
        if (b == std::string::npos) continue;
        id = id.substr(b, e - b + 1);
        std::set<int>& lines = out[id];
        if (c.trails_code) {
          for (int l = c.start_line; l <= c.end_line; ++l) lines.insert(l);
        } else {
          const auto it = lx.code_lines.upper_bound(c.end_line);
          if (it == lx.code_lines.end()) continue;
          const int first = *it;
          int last = first;
          for (const Token& t : lx.tokens) {
            if (t.line < first) continue;
            last = t.line;
            if (t.kind == Tok::kPunct &&
                (t.text == ";" || t.text == "{")) {
              break;
            }
          }
          for (int l = first; l <= last; ++l) lines.insert(l);
        }
      }
      pos = close;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scope / function-context pass
// ---------------------------------------------------------------------------

// Substrings that make a function an "emission context": its output is
// part of the byte-identity contract (serialization, reports, CSV/JSON
// artifacts, operator<<).
const char* kEmissionNames[] = {"serialize", "report", "csv",  "export",
                                "summary",   "dump",   "print", "emit",
                                "json",      "write"};

bool is_emission_name(const std::string& fn) {
  std::string lower(fn.size(), '\0');
  std::transform(fn.begin(), fn.end(), lower.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  for (const char* s : kEmissionNames) {
    if (lower.find(s) != std::string::npos) return true;
  }
  return false;
}

const std::set<std::string> kControlKeywords = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "decltype", "static_assert"};
const std::set<std::string> kPostSigQualifiers = {
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "throw", "try"};

struct TokenCtx {
  int fn_id = -1;           // -1: not inside a function body
  bool emission = false;    // inside an emission-context function
};

struct ScopeInfo {
  int fn_id;
  bool emission;
  bool is_function_root;  // this brace opened the function body itself
};

// Walks back from tokens[open_brace - 1] and decides whether this '{'
// opens a function body; returns the function name or nullopt.
// Handles trailing return types, cv/noexcept qualifiers, constructor
// initializer lists and lambdas (lambdas report "" = inherit).
struct BraceClass {
  enum Kind { kFunction, kLambda, kTypeOrNamespace, kPlainBlock } kind;
  std::string name;  // for kFunction
};

int match_paren_back(const std::vector<Token>& t, int close) {
  int depth = 0;
  for (int j = close; j >= 0; --j) {
    if (t[static_cast<std::size_t>(j)].kind != Tok::kPunct) continue;
    const std::string& x = t[static_cast<std::size_t>(j)].text;
    if (x == ")") ++depth;
    if (x == "(") {
      --depth;
      if (depth == 0) return j;
    }
  }
  return -1;
}

BraceClass classify_brace(const std::vector<Token>& t, int brace) {
  auto tok = [&](int j) -> const Token& {
    return t[static_cast<std::size_t>(j)];
  };
  int j = brace - 1;
  // Skip post-signature qualifiers and trailing return types.
  int guard = 0;
  while (j >= 0 && guard++ < 24) {
    const Token& tk = tok(j);
    if (tk.kind == Tok::kIdent && kPostSigQualifiers.count(tk.text)) {
      --j;
      continue;
    }
    // Trailing return "-> Type": skip type tokens back to "->".
    if (tk.kind == Tok::kIdent || (tk.kind == Tok::kPunct &&
                                   (tk.text == "::" || tk.text == "<" ||
                                    tk.text == ">" || tk.text == "*" ||
                                    tk.text == "&"))) {
      // Only keep skipping if a "->" appears shortly before.
      int k = j;
      int inner = 0;
      bool arrow = false;
      while (k >= 0 && inner++ < 12) {
        if (tok(k).kind == Tok::kPunct && tok(k).text == "->") {
          arrow = true;
          break;
        }
        if (tok(k).kind == Tok::kPunct &&
            (tok(k).text == ")" || tok(k).text == "{" || tok(k).text == ";"))
          break;
        --k;
      }
      if (arrow) {
        j = k - 1;
        continue;
      }
    }
    break;
  }
  if (j < 0) return {BraceClass::kPlainBlock, ""};

  // Constructor initializer lists: repeatedly hop over `name(...)` or
  // `name{...}` members preceded by ',' or ':'.
  int hops = 0;
  while (j >= 0 && hops++ < 64) {
    if (tok(j).kind != Tok::kPunct || tok(j).text != ")") break;
    const int open = match_paren_back(t, j);
    if (open <= 0) return {BraceClass::kPlainBlock, ""};
    int name_end = open - 1;
    if (tok(name_end).kind == Tok::kPunct && tok(name_end).text == "]") {
      return {BraceClass::kLambda, ""};
    }
    // operator<< and friends.
    if (tok(name_end).kind == Tok::kPunct && name_end > 0 &&
        tok(name_end - 1).kind == Tok::kIdent &&
        tok(name_end - 1).text == "operator") {
      return {BraceClass::kFunction, "operator" + tok(name_end).text};
    }
    if (tok(name_end).kind != Tok::kIdent)
      return {BraceClass::kPlainBlock, ""};
    const std::string name = tok(name_end).text;
    if (kControlKeywords.count(name)) return {BraceClass::kPlainBlock, ""};
    // Walk a qualified-name chain (Foo::Bar::name, ~Foo) to its start.
    int name_start = name_end;
    while (name_start >= 2 && tok(name_start - 1).kind == Tok::kPunct &&
           tok(name_start - 1).text == "::" &&
           tok(name_start - 2).kind == Tok::kIdent) {
      name_start -= 2;
    }
    if (name_start >= 1 && tok(name_start - 1).kind == Tok::kPunct &&
        tok(name_start - 1).text == "~") {
      --name_start;
    }
    const int pre = name_start - 1;
    if (pre >= 0 && tok(pre).kind == Tok::kPunct &&
        (tok(pre).text == "," || tok(pre).text == ":")) {
      // Initializer-list member; the real signature is further back.
      // ":" is preceded by the ctor's ")" — continue the loop from there.
      j = pre - 1;
      continue;
    }
    return {BraceClass::kFunction, name};
  }

  // No ')' directly before the brace. Distinguish type/namespace scopes
  // from plain blocks by scanning back to the statement start.
  int k = j;
  int guard2 = 0;
  while (k >= 0 && guard2++ < 64) {
    const Token& tk = tok(k);
    if (tk.kind == Tok::kPunct &&
        (tk.text == ";" || tk.text == "{" || tk.text == "}")) {
      break;
    }
    if (tk.kind == Tok::kIdent &&
        (tk.text == "namespace" || tk.text == "class" ||
         tk.text == "struct" || tk.text == "union" || tk.text == "enum")) {
      return {BraceClass::kTypeOrNamespace, ""};
    }
    --k;
  }
  return {BraceClass::kPlainBlock, ""};
}

struct ContextPass {
  std::vector<TokenCtx> ctx;                 // parallel to tokens
  std::unordered_map<int, bool> fn_has_sort; // fn_id -> contains sort(
  std::unordered_map<int, std::string> fn_name;
};

ContextPass build_context(const std::vector<Token>& t,
                          bool whole_file_emission) {
  ContextPass out;
  out.ctx.resize(t.size());
  std::vector<ScopeInfo> stack;
  int next_fn_id = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool in_fn = !stack.empty() && stack.back().fn_id >= 0;
    out.ctx[i].fn_id = in_fn ? stack.back().fn_id : -1;
    out.ctx[i].emission = in_fn && stack.back().emission;
    if (t[i].kind != Tok::kPunct) {
      if (in_fn && t[i].kind == Tok::kIdent &&
          t[i].text.find("sort") != std::string::npos) {
        out.fn_has_sort[stack.back().fn_id] = true;
      }
      continue;
    }
    if (t[i].text == "{") {
      const BraceClass bc = classify_brace(t, static_cast<int>(i));
      ScopeInfo s{};
      switch (bc.kind) {
        case BraceClass::kFunction: {
          s.fn_id = next_fn_id++;
          s.emission = is_emission_name(bc.name) || whole_file_emission;
          s.is_function_root = true;
          out.fn_name[s.fn_id] = bc.name;
          break;
        }
        case BraceClass::kLambda: {
          // Lambda bodies inherit the enclosing context: a lambda defined
          // inside serialize() writes the same bytes serialize() does.
          if (in_fn) {
            s = stack.back();
            s.is_function_root = false;
          } else {
            s.fn_id = next_fn_id++;
            s.emission = whole_file_emission;
            s.is_function_root = true;
            out.fn_name[s.fn_id] = "<lambda>";
          }
          break;
        }
        case BraceClass::kTypeOrNamespace:
          s.fn_id = -1;
          s.emission = false;
          s.is_function_root = false;
          break;
        case BraceClass::kPlainBlock:
          if (in_fn) {
            s = stack.back();
            s.is_function_root = false;
          } else {
            s.fn_id = -1;
            s.emission = false;
            s.is_function_root = false;
          }
          break;
      }
      stack.push_back(s);
      // The brace token itself belongs to the scope it opens.
      out.ctx[i].fn_id = s.fn_id;
      out.ctx[i].emission = s.fn_id >= 0 && s.emission;
    } else if (t[i].text == "}") {
      if (!stack.empty()) stack.pop_back();
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Declaration pre-pass: per-file sets of float-typed names, double-returning
// functions, and unordered_{map,set} variables.
// ---------------------------------------------------------------------------

struct Decls {
  std::unordered_set<std::string> float_vars;
  std::unordered_set<std::string> float_fns;
  std::unordered_set<std::string> unordered_vars;
};

Decls collect_decls(const std::vector<Token>& t) {
  Decls out;
  auto at = [&](std::size_t j) -> const Token* {
    return j < t.size() ? &t[j] : nullptr;
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    const std::string& name = t[i].text;
    if (name == "double" || name == "float") {
      // Skip declarator decorations, then record `double x` / `double f(`.
      std::size_t j = i + 1;
      while (const Token* tk = at(j)) {
        if (tk->kind == Tok::kPunct && (tk->text == "&" || tk->text == "*"))
          ++j;
        else if (tk->kind == Tok::kIdent && tk->text == "const")
          ++j;
        else
          break;
      }
      const Token* id = at(j);
      if (id == nullptr || id->kind != Tok::kIdent) continue;
      const Token* after = at(j + 1);
      if (after != nullptr && after->kind == Tok::kPunct &&
          after->text == "(") {
        out.float_fns.insert(id->text);
      } else {
        out.float_vars.insert(id->text);
      }
    } else if (name == "unordered_map" || name == "unordered_set") {
      const Token* open = at(i + 1);
      if (open == nullptr || open->kind != Tok::kPunct || open->text != "<")
        continue;
      // Skip the balanced template argument list (">>" closes two).
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < t.size(); ++j) {
        if (t[j].kind != Tok::kPunct) continue;
        if (t[j].text == "<") ++depth;
        if (t[j].text == ">") --depth;
        if (t[j].text == ">>") depth -= 2;
        if (depth <= 0) break;
      }
      ++j;
      while (const Token* tk = at(j)) {
        if (tk->kind == Tok::kPunct && (tk->text == "&" || tk->text == "*"))
          ++j;
        else if (tk->kind == Tok::kIdent && tk->text == "const")
          ++j;
        else
          break;
      }
      const Token* id = at(j);
      if (id != nullptr && id->kind == Tok::kIdent) {
        out.unordered_vars.insert(id->text);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule helpers
// ---------------------------------------------------------------------------

bool path_contains(const std::string& path, const char* dir) {
  return path.find(dir) != std::string::npos;
}

bool prev_is_member_access(const std::vector<Token>& t, std::size_t i) {
  if (i == 0) return false;
  const Token& p = t[i - 1];
  return p.kind == Tok::kPunct && (p.text == "." || p.text == "->");
}

// A preceding identifier usually means `SomeType name(` — a declaration,
// not a call — except for statement keywords like `return time(...)`.
bool prev_ident_is_declaration(const std::vector<Token>& t, std::size_t i) {
  if (i == 0 || t[i - 1].kind != Tok::kIdent) return false;
  static const std::set<std::string> kStatementKeywords = {
      "return", "co_return", "co_yield", "case", "throw", "else", "do"};
  return kStatementKeywords.count(t[i - 1].text) == 0;
}

bool next_is(const std::vector<Token>& t, std::size_t i, const char* text) {
  return i + 1 < t.size() && t[i + 1].kind == Tok::kPunct &&
         t[i + 1].text == text;
}

/// True when a printf-style format string contains a floating conversion
/// (%f %F %e %E %g %G %a %A, with optional flags/width/precision).
bool has_float_conversion(const std::string& fmt) {
  for (std::size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') continue;
    std::size_t j = i + 1;
    if (j < fmt.size() && fmt[j] == '%') {
      i = j;
      continue;
    }
    while (j < fmt.size() &&
           (std::isdigit(static_cast<unsigned char>(fmt[j])) ||
            fmt[j] == '-' || fmt[j] == '+' || fmt[j] == ' ' ||
            fmt[j] == '#' || fmt[j] == '.' || fmt[j] == '*' ||
            fmt[j] == 'l' || fmt[j] == 'h' || fmt[j] == 'L')) {
      ++j;
    }
    if (j < fmt.size() && std::strchr("fFeEgGaA", fmt[j]) != nullptr)
      return true;
  }
  return false;
}

// Forbidden-identifier tables.

const std::set<std::string> kWallclockIdents = {
    "system_clock",  "steady_clock", "high_resolution_clock",
    "gettimeofday",  "clock_gettime", "localtime", "localtime_r",
    "gmtime",        "gmtime_r",      "strftime",  "asctime",
    "ctime",         "mktime",        "timespec_get"};

// Ambient-RNG *types*: flagged wherever they appear.
const std::set<std::string> kRngTypes = {
    "random_device", "mt19937",        "mt19937_64",
    "minstd_rand",   "minstd_rand0",   "default_random_engine",
    "ranlux24",      "ranlux24_base",  "ranlux48",
    "ranlux48_base", "knuth_b",        "random_shuffle"};

// Ambient-RNG *functions*: flagged only in call position to spare
// same-named members.
const std::set<std::string> kRngCalls = {"rand",    "srand",  "rand_r",
                                         "drand48", "lrand48", "mrand48",
                                         "random",  "srandom"};

const std::set<std::string> kRawOutputIdents = {
    "ofstream", "fopen", "freopen", "fwrite", "fputs", "fputc"};

const std::set<std::string> kPrintfFamily = {
    "printf", "fprintf", "sprintf", "snprintf", "vsnprintf", "vfprintf"};

const std::set<std::string> kCheckedMacros = {"REQB_DCHECK", "REQB_AUDIT",
                                              "REQB_AUDIT_MSG"};

const std::set<std::string> kMutatingMembers = {
    "insert",    "erase",      "emplace",   "emplace_back",
    "push_back", "push_front", "pop_back",  "pop_front",
    "clear",     "reset",      "release",   "assign",
    "resize",    "swap"};

const std::set<std::string> kAssignPuncts = {
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};

// ---------------------------------------------------------------------------
// The linter proper
// ---------------------------------------------------------------------------

class FileLinter {
 public:
  FileLinter(const std::string& path, const Lexed& lx, const Options& opt,
             Report* out)
      : path_(path),
        lx_(lx),
        opt_(opt),
        out_(out),
        decls_(collect_decls(lx.tokens)),
        ctx_(build_context(lx.tokens,
                           path_contains(path, "bench/") ||
                               path_contains(path, "examples/"))),
        allow_(suppressed_lines(lx)) {}

  void run() {
    const std::vector<Token>& t = lx_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      rule_wallclock(i);
      rule_ambient_rng(i);
      rule_raw_ofstream(i);
      rule_unordered_serialization(i);
      rule_raw_float_format(i);
      rule_check_macro_hygiene(i);
    }
  }

 private:
  bool enabled(const char* rule) const {
    return opt_.disabled.count(rule) == 0;
  }

  void emit(const char* rule, int line, std::string message) {
    if (opt_.honor_suppressions) {
      const auto it = allow_.find(rule);
      if (it != allow_.end() && it->second.count(line) != 0) {
        ++out_->suppressed;
        return;
      }
    }
    Finding f;
    f.file = path_;
    f.line = line;
    f.rule = rule;
    f.message = std::move(message);
    if (line >= 1 &&
        static_cast<std::size_t>(line) <= lx_.raw_lines.size()) {
      const std::string& raw =
          lx_.raw_lines[static_cast<std::size_t>(line - 1)];
      const auto b = raw.find_first_not_of(" \t");
      f.line_text = b == std::string::npos ? "" : raw.substr(b);
    }
    out_->findings.push_back(std::move(f));
  }

  // --- rule 1 -------------------------------------------------------------
  void rule_wallclock(std::size_t i) {
    if (!enabled(kNoWallclock)) return;
    const std::vector<Token>& t = lx_.tokens;
    if (t[i].kind != Tok::kIdent) return;
    const std::string& name = t[i].text;
    if (kWallclockIdents.count(name) != 0) {
      emit(kNoWallclock, t[i].line,
           "'" + name +
               "' is a wall-clock source; simulation output must be a pure "
               "function of config + trace (use SimTime, or suppress for "
               "profiler-only timing)");
      return;
    }
    if ((name == "time" || name == "clock") && next_is(t, i, "(") &&
        !prev_is_member_access(t, i)) {
      // `std::time(...)` / `::time(...)` / bare call; a preceding
      // identifier means this is a declaration (`SimTime time(...)`).
      const bool declared = prev_ident_is_declaration(t, i);
      const bool std_qualified =
          i >= 2 && t[i - 1].kind == Tok::kPunct && t[i - 1].text == "::" &&
          t[i - 2].kind == Tok::kIdent && t[i - 2].text == "std";
      const bool other_qualified = i > 0 && t[i - 1].kind == Tok::kPunct &&
                                   t[i - 1].text == "::" && !std_qualified;
      if (std_qualified || (!other_qualified && !declared)) {
        emit(kNoWallclock, t[i].line,
             "'" + name + "()' reads the wall clock; derive timestamps "
             "from SimTime instead");
      }
    }
  }

  // --- rule 2 -------------------------------------------------------------
  void rule_ambient_rng(std::size_t i) {
    if (!enabled(kNoAmbientRng)) return;
    const std::vector<Token>& t = lx_.tokens;
    if (t[i].kind == Tok::kInclude && t[i].text == "random") {
      emit(kNoAmbientRng, t[i].line,
           "#include <random> pulls in implementation-defined engines and "
           "distributions; use util/rng.h (xoshiro256**) instead");
      return;
    }
    if (t[i].kind != Tok::kIdent) return;
    const std::string& name = t[i].text;
    if (kRngTypes.count(name) != 0) {
      emit(kNoAmbientRng, t[i].line,
           "'" + name + "' is ambient RNG; all randomness must flow "
           "through the per-run seeded xoshiro256** stream (util/rng.h)");
      return;
    }
    if (kRngCalls.count(name) != 0 && next_is(t, i, "(") &&
        !prev_is_member_access(t, i) && !prev_ident_is_declaration(t, i)) {
      emit(kNoAmbientRng, t[i].line,
           "'" + name + "()' is ambient RNG seeded outside run config; use "
           "the xoshiro256** stream (util/rng.h)");
    }
  }

  // --- rule 3 -------------------------------------------------------------
  void rule_raw_ofstream(std::size_t i) {
    if (!enabled(kNoRawOfstream)) return;
    const std::vector<Token>& t = lx_.tokens;
    if (t[i].kind != Tok::kIdent) return;
    const std::string& name = t[i].text;
    if (kRawOutputIdents.count(name) == 0) return;
    if (prev_is_member_access(t, i)) return;
    emit(kNoRawOfstream, t[i].line,
         "'" + name + "' writes files non-atomically; a crash mid-write "
         "leaves a truncated artifact — use write_file_atomic "
         "(util/atomic_file.h) or SnapshotWriter");
  }

  // --- rule 4 -------------------------------------------------------------
  // True when the function holding token i sorts somewhere: the
  // collect-into-vector-then-sort idiom is the sanctioned pattern.
  bool enclosing_fn_sorts(std::size_t i) const {
    const auto sorted = ctx_.fn_has_sort.find(ctx_.ctx[i].fn_id);
    return sorted != ctx_.fn_has_sort.end() && sorted->second;
  }

  std::string enclosing_fn_name(std::size_t i) const {
    const auto fname = ctx_.fn_name.find(ctx_.ctx[i].fn_id);
    return fname != ctx_.fn_name.end() ? fname->second : "?";
  }

  void rule_unordered_serialization(std::size_t i) {
    if (!enabled(kNoUnorderedSer)) return;
    const std::vector<Token>& t = lx_.tokens;
    if (t[i].kind != Tok::kIdent || !ctx_.ctx[i].emission) return;
    // SlotMap::for_each_unordered walks in slab order, which depends on
    // the map's history. Matched by method name: the declaration pass is
    // per file and cannot see members declared in headers.
    if (t[i].text == "for_each_unordered" && prev_is_member_access(t, i) &&
        next_is(t, i, "(")) {
      if (enclosing_fn_sorts(i)) return;
      const std::string base =
          i >= 2 && t[i - 2].kind == Tok::kIdent ? t[i - 2].text : "?";
      emit(kNoUnorderedSer, t[i].line,
           "slab-order walk '" + base + t[i - 1].text + t[i].text +
               "' inside emission function '" + enclosing_fn_name(i) +
               "' leaks slot order into the output; sort the keys first");
      return;
    }
    if (t[i].text != "for" || !next_is(t, i, "(")) return;
    // Find the ':' of a range-for at paren depth 1.
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (t[j].kind != Tok::kPunct) continue;
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")") {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      }
      if (t[j].text == ":" && depth == 1 && colon == 0) colon = j;
      if (t[j].text == ";" && depth == 1) return;  // classic for
    }
    if (colon == 0 || close == 0) return;
    // Base identifier of the range expression: the last plain identifier
    // not followed by '(' (so `m`, `obj.map_`, `this->counts_` resolve,
    // `make_map()` stays unknown).
    std::string base;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (t[j].kind == Tok::kIdent && !next_is(t, j, "(")) base = t[j].text;
    }
    if (base.empty() || decls_.unordered_vars.count(base) == 0) return;
    if (enclosing_fn_sorts(i)) return;
    emit(kNoUnorderedSer, t[i].line,
         "iterating unordered container '" + base + "' inside emission "
         "function '" + enclosing_fn_name(i) +
             "' leaks hash order into the output; sort the keys first");
  }

  // --- rule 5 -------------------------------------------------------------
  void rule_raw_float_format(std::size_t i) {
    if (!enabled(kNoRawFloatFormat)) return;
    const std::vector<Token>& t = lx_.tokens;
    // (a) precision manipulators, anywhere.
    if (t[i].kind == Tok::kIdent &&
        (t[i].text == "setprecision" || t[i].text == "hexfloat")) {
      emit(kNoRawFloatFormat, t[i].line,
           "'" + t[i].text + "' formats floats stream-locally; use "
           "format_double(value, decimals) for byte-stable output");
      return;
    }
    if (t[i].kind == Tok::kIdent &&
        (t[i].text == "fixed" || t[i].text == "scientific") && i >= 2 &&
        t[i - 1].kind == Tok::kPunct && t[i - 1].text == "::" &&
        t[i - 2].kind == Tok::kIdent && t[i - 2].text == "std") {
      emit(kNoRawFloatFormat, t[i].line,
           "'std::" + t[i].text + "' formats floats stream-locally; use "
           "format_double(value, decimals) for byte-stable output");
      return;
    }
    // (b) printf-family with a float conversion, anywhere.
    if (t[i].kind == Tok::kIdent && kPrintfFamily.count(t[i].text) != 0 &&
        next_is(t, i, "(") && !prev_is_member_access(t, i)) {
      int depth = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].kind == Tok::kPunct) {
          if (t[j].text == "(") ++depth;
          if (t[j].text == ")") {
            if (--depth == 0) break;
          }
        }
        if (t[j].kind == Tok::kString && has_float_conversion(t[j].text)) {
          emit(kNoRawFloatFormat, t[i].line,
               "'" + t[i].text + "' with a %f/%e/%g conversion honors the "
               "process locale; use format_double(value, decimals)");
          break;
        }
      }
      return;
    }
    // (c) streaming a float-typed expression in an emission context.
    if (t[i].kind != Tok::kPunct || t[i].text != "<<") return;
    if (!ctx_.ctx[i].emission) return;
    if (i > 0 && t[i - 1].kind == Tok::kIdent &&
        t[i - 1].text == "operator") {
      return;  // operator<< declaration, not an insertion
    }
    // Segment: tokens up to the next '<<' / ';' at depth 0.
    int depth = 0;
    bool evidence = false;
    bool exempt = false;
    std::string what;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      const Token& tk = t[j];
      if (tk.kind == Tok::kPunct) {
        if (tk.text == "(") ++depth;
        if (tk.text == ")") {
          if (depth == 0) break;
          --depth;
        }
        if (depth == 0 &&
            (tk.text == "<<" || tk.text == ";" || tk.text == ","))
          break;
        continue;
      }
      if (tk.kind == Tok::kFloat) {
        evidence = true;
        if (what.empty()) what = "float literal " + tk.text;
      }
      if (tk.kind == Tok::kIdent) {
        if (tk.text == "format_double" || tk.text == "format_bytes" ||
            tk.text == "to_string") {
          // to_string on integral values is exact; float args will carry
          // their own evidence tokens and still flag below only if they
          // are NOT wrapped — to_string(double) prints %f, so treat a
          // float-evidence argument inside to_string as raw too.
          if (tk.text != "to_string") exempt = true;
        }
        if (tk.text == "static_cast" && j + 2 < t.size() &&
            t[j + 1].kind == Tok::kPunct && t[j + 1].text == "<" &&
            t[j + 2].kind == Tok::kIdent &&
            (t[j + 2].text == "double" || t[j + 2].text == "float")) {
          evidence = true;
          if (what.empty()) what = "static_cast<" + t[j + 2].text + ">";
        }
        if (decls_.float_vars.count(tk.text) != 0 &&
            !prev_is_member_access(t, j) && !next_is(t, j, "(")) {
          evidence = true;
          if (what.empty()) what = "double variable '" + tk.text + "'";
        }
        if (decls_.float_fns.count(tk.text) != 0 && next_is(t, j, "(")) {
          evidence = true;
          if (what.empty()) what = "double-returning '" + tk.text + "()'";
        }
      }
    }
    if (evidence && !exempt) {
      emit(kNoRawFloatFormat, t[i].line,
           "streaming " + what + " uses the stream's locale-dependent "
           "default precision; wrap it in format_double(value, decimals)");
    }
  }

  // --- rule 6 -------------------------------------------------------------
  void rule_check_macro_hygiene(std::size_t i) {
    if (!enabled(kCheckMacroHygiene)) return;
    const std::vector<Token>& t = lx_.tokens;
    if (t[i].kind != Tok::kIdent || kCheckedMacros.count(t[i].text) == 0)
      return;
    if (!next_is(t, i, "(")) return;
    const std::string& macro = t[i].text;
    int depth = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      const Token& tk = t[j];
      if (tk.kind == Tok::kPunct) {
        if (tk.text == "(") ++depth;
        if (tk.text == ")") {
          if (--depth == 0) break;
        }
        if (tk.text == "++" || tk.text == "--" ||
            kAssignPuncts.count(tk.text) != 0) {
          emit(kCheckMacroHygiene, tk.line,
               "'" + tk.text + "' inside " + macro + " is a side effect "
               "that vanishes when the macro is compiled out; hoist it "
               "out of the check");
          return;
        }
        if ((tk.text == "." || tk.text == "->") && j + 2 < t.size() &&
            t[j + 1].kind == Tok::kIdent &&
            kMutatingMembers.count(t[j + 1].text) != 0 &&
            t[j + 2].kind == Tok::kPunct && t[j + 2].text == "(") {
          emit(kCheckMacroHygiene, tk.line,
               "'" + t[j + 1].text + "()' mutates state inside " + macro +
                   "; the call disappears when the macro is compiled out");
          return;
        }
      }
    }
  }

  const std::string& path_;
  const Lexed& lx_;
  const Options& opt_;
  Report* out_;
  Decls decls_;
  ContextPass ctx_;
  std::map<std::string, std::set<int>> allow_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rule_catalog() { return kRules; }

bool is_known_rule(const std::string& id) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return id == r.id; });
}

std::vector<std::string> collect_sources(const std::vector<std::string>& paths,
                                         std::string* error) {
  namespace fs = std::filesystem;
  const std::set<std::string> exts = {".h", ".hpp", ".cc", ".cpp", ".cxx"};
  std::vector<std::string> out;
  for (const std::string& p : paths) {
    std::error_code ec;
    const fs::file_status st = fs::status(p, ec);
    if (ec || st.type() == fs::file_type::not_found) {
      if (error != nullptr) *error = "no such file or directory: " + p;
      return {};
    }
    if (fs::is_directory(st)) {
      for (fs::recursive_directory_iterator it(p, ec), end;
           !ec && it != end; it.increment(ec)) {
        const fs::path& entry = it->path();
        const std::string name = entry.filename().string();
        if (it->is_directory() &&
            (name == "build" || (!name.empty() && name[0] == '.'))) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() &&
            exts.count(entry.extension().string()) != 0) {
          out.push_back(entry.string());
        }
      }
      if (ec && error != nullptr) {
        *error = "while scanning " + p + ": " + ec.message();
        return {};
      }
    } else {
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void lint_content(const std::string& path, const std::string& content,
                  const Options& options, Report* out) {
  const Lexed lx = lex(content);
  FileLinter linter(path, lx, options, out);
  linter.run();
  ++out->files_scanned;
}

bool lint_file(const std::string& path, const Options& options, Report* out,
               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  lint_content(path, buf.str(), options, out);
  return true;
}

Report lint_paths(const std::vector<std::string>& paths,
                  const Options& options, std::string* error) {
  Report out;
  const std::vector<std::string> files = collect_sources(paths, error);
  if (error != nullptr && !error->empty()) return out;
  for (const std::string& f : files) {
    if (!lint_file(f, options, &out, error)) return out;
  }
  std::sort(out.findings.begin(), out.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

std::string baseline_key(const Finding& f) {
  return f.file + "|" + f.rule + "|" + hex64(fnv1a64(f.line_text));
}

std::string render_baseline(const std::vector<Finding>& findings) {
  std::vector<std::string> keys;
  keys.reserve(findings.size());
  for (const Finding& f : findings) keys.push_back(baseline_key(f));
  std::sort(keys.begin(), keys.end());
  std::string out = "# reqblock-lint baseline v1\n";
  for (const std::string& k : keys) {
    out += k;
    out += '\n';
  }
  return out;
}

std::vector<Finding> apply_baseline(const std::vector<Finding>& findings,
                                    const std::string& baseline_text,
                                    int* baselined) {
  std::multiset<std::string> keys;
  std::istringstream in(baseline_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    keys.insert(line);
  }
  std::vector<Finding> fresh;
  int absorbed = 0;
  for (const Finding& f : findings) {
    const auto it = keys.find(baseline_key(f));
    if (it != keys.end()) {
      keys.erase(it);
      ++absorbed;
    } else {
      fresh.push_back(f);
    }
  }
  if (baselined != nullptr) *baselined = absorbed;
  return fresh;
}

}  // namespace reqblock::lint
