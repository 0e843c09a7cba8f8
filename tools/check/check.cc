/**
 * @file
 * Project lint tool, v2: a small token-stream pass (not line
 * regexes) over comment- and string-stripped source, enforcing the
 * repo idioms that clang-tidy cannot express:
 *
 *  - no raw assert()/abort()/exit()/std::cout in library code: use
 *    panic()/fatal()/inform() from src/util/logging.hh so every
 *    diagnostic goes through one configurable channel;
 *  - no rand()/srand(): all randomness flows through the explicitly
 *    seeded Rng in src/util/rng.* so experiments stay reproducible;
 *  - header guards must match the file path (src/util/logging.hh
 *    guards with VAESA_UTIL_LOGGING_HH), so copied headers cannot
 *    silently shadow each other;
 *  - raw SIMD intrinsics (<immintrin.h> et al., _mm*_ calls) and
 *    '#pragma omp' only inside src/tensor/kernels/: the rest of the
 *    tree must use the kernels:: entry points so the determinism and
 *    tolerance contracts live in one place;
 *  - no naked std::mutex / std::shared_mutex / std lock guards in
 *    src/ outside src/util/sync.hh: concurrency goes through the
 *    capability-annotated vaesa::Mutex layer so clang thread-safety
 *    analysis sees every acquisition;
 *  - nested lock acquisitions must follow the lock-order table
 *    declared via VAESA_LOCK_ORDER_ENTRY in src/util/sync.hh
 *    (strictly increasing ranks outer to inner);
 *  - no mutable namespace-scope globals in src/ outside the
 *    registries that legitimately own process-wide state;
 *  - no generated measurement files (.csv/.json) committed inside a
 *    bench/ tree: bench outputs belong in bench_out/ (gitignored)
 *    with the one sanctioned snapshot per bench living at the repo
 *    root as BENCH_<name>.json;
 *  - every string literal passed to metrics::counter()/gauge()/
 *    histogram() in src/ must appear backticked in the
 *    docs/OBSERVABILITY.md taxonomy, and every trace::Span literal
 *    must have a row in its span table; on the default scan, every
 *    row of the metric and span tables must in turn name a literal
 *    src/ registers, so the tables list exactly what the code emits.
 *
 * Matching runs on comment- and string-stripped text, so prose like
 * "random" or documentation mentioning abort() never trips it.
 *
 * Per-tree policy: src/ (and tests/lint, where the negative fixtures
 * live) gets every check; tools/ may use iostream directly (the
 * documented exemption for standalone executables); bench/studies/
 * (the studies library) gets every check but the stream ban; the
 * rest of bench/ may additionally use raw clocks and ofstream
 * (benchmark timing and result dumps are not library code).
 *
 * Usage: vaesa_check <repo-root> [subdir ...]
 * (default subdirs: src tools bench)
 * Exit status 0 when clean, 1 with findings, 2 on usage errors.
 *
 * This tool lives outside src/ and may use iostream directly.
 */

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding
{
    std::string file;
    int line;
    std::string message;
};

std::vector<Finding> findings;

void
report(const std::string &file, int line, const std::string &message)
{
    findings.push_back({file, line, message});
}

/**
 * Strip comments, string literals, and char literals, preserving the
 * character count per line (replaced with spaces) so line numbers and
 * token boundaries survive.
 */
std::string
stripCommentsAndStrings(const std::string &text)
{
    enum class State { Code, Line, Block, Str, Chr };
    State state = State::Code;
    std::string out(text.size(), ' ');
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '\n')
            out[i] = '\n';
        switch (state) {
          case State::Code:
            if (c == '/' && next == '/') {
                state = State::Line;
            } else if (c == '/' && next == '*') {
                state = State::Block;
                ++i;
            } else if (c == '"') {
                state = State::Str;
                out[i] = c;
            } else if (c == '\'') {
                state = State::Chr;
                out[i] = c;
            } else {
                out[i] = c;
            }
            break;
          case State::Line:
            if (c == '\n')
                state = State::Code;
            break;
          case State::Block:
            if (c == '*' && next == '/') {
                state = State::Code;
                ++i;
            }
            break;
          case State::Str:
            if (c == '\\') {
                ++i;
                if (i < text.size() && text[i] == '\n')
                    out[i] = '\n';
            } else if (c == '"') {
                out[i] = c;
                state = State::Code;
            }
            break;
          case State::Chr:
            if (c == '\\') {
                ++i;
            } else if (c == '\'') {
                out[i] = c;
                state = State::Code;
            }
            break;
        }
    }
    return out;
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

// ---------------------------------------------------------------------------
// Token stream
// ---------------------------------------------------------------------------

struct Token
{
    enum class Kind {
        Ident,     // identifier or keyword
        Number,    // numeric literal
        Punct,     // punctuation; "::" is one token
        Directive, // whole preprocessor line (continuations joined)
    };

    Kind kind;
    std::string text;
    int line;
};

/** Tokenize comment/string-stripped code. */
std::vector<Token>
tokenize(const std::string &code)
{
    std::vector<Token> tokens;
    int line = 1;
    bool atLineStart = true;
    std::size_t i = 0;
    const std::size_t n = code.size();
    while (i < n) {
        const char c = code[i];
        if (c == '\n') {
            ++line;
            atLineStart = true;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '#' && atLineStart) {
            const int startLine = line;
            std::string text;
            while (i < n) {
                if (code[i] == '\\' && i + 1 < n &&
                    code[i + 1] == '\n') {
                    i += 2;
                    ++line;
                    continue;
                }
                if (code[i] == '\n')
                    break;
                text += code[i];
                ++i;
            }
            tokens.push_back(
                {Token::Kind::Directive, text, startLine});
            continue; // the newline is handled by the next loop turn
        }
        atLineStart = false;
        if (isIdentStart(c)) {
            std::size_t end = i;
            while (end < n && isIdentChar(code[end]))
                ++end;
            tokens.push_back({Token::Kind::Ident,
                              code.substr(i, end - i), line});
            i = end;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t end = i;
            while (end < n &&
                   (isIdentChar(code[end]) || code[end] == '.' ||
                    code[end] == '\''))
                ++end;
            tokens.push_back({Token::Kind::Number,
                              code.substr(i, end - i), line});
            i = end;
            continue;
        }
        if (c == ':' && i + 1 < n && code[i + 1] == ':') {
            tokens.push_back({Token::Kind::Punct, "::", line});
            i += 2;
            continue;
        }
        tokens.push_back(
            {Token::Kind::Punct, std::string(1, c), line});
        ++i;
    }
    return tokens;
}

// ---------------------------------------------------------------------------
// Path policy
// ---------------------------------------------------------------------------

bool
pathStartsWith(const std::string &relPath, const std::string &prefix)
{
    return relPath.compare(0, prefix.size(), prefix) == 0;
}

bool
pathInDirs(const std::string &relPath,
           const std::vector<std::string> &prefixes)
{
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const std::string &prefix) {
                           return pathStartsWith(relPath, prefix);
                       });
}

bool
pathAllowed(const std::string &relPath,
            const std::vector<std::string> &allowed)
{
    return std::any_of(allowed.begin(), allowed.end(),
                       [&](const std::string &suffix) {
                           return relPath.size() >= suffix.size() &&
                                  relPath.compare(relPath.size() -
                                                      suffix.size(),
                                                  suffix.size(),
                                                  suffix) == 0;
                       });
}

/** Which checks apply to a file, by tree. */
struct TreePolicy
{
    bool allowStreams;        // std::cout / printf
    bool allowClocks;         // bare steady_clock
    bool allowOfstream;       // std::ofstream anywhere
    bool checkSyncPrimitives; // naked std mutexes / lock guards
    bool checkGlobals;        // mutable namespace-scope globals
};

TreePolicy
policyFor(const std::string &relPath)
{
    // Standalone executables: iostream is the documented exemption.
    if (pathStartsWith(relPath, "tools/"))
        return {true, false, false, false, false};
    // The studies library under the benches is library code: it gets
    // src/'s bans, and prints its tables as the bench mains do.
    if (pathStartsWith(relPath, "bench/studies/"))
        return {true, false, false, true, true};
    // Benchmarks additionally time with raw clocks and dump result
    // files directly; they are not library code.
    if (pathStartsWith(relPath, "bench/"))
        return {true, true, true, false, false};
    // src/ and tests/lint (the negative fixtures) get everything.
    return {false, false, false, true, true};
}

// ---------------------------------------------------------------------------
// Ban tables
// ---------------------------------------------------------------------------

struct BannedCall
{
    /** Identifier that must not be called. */
    std::string name;

    /** Suggested replacement for the diagnostic. */
    std::string instead;

    /** Path suffixes where the identifier is allowed. */
    std::vector<std::string> allowedIn;
};

const std::vector<BannedCall> bannedCalls = {
    {"assert", "VAESA_EXPECT()/panic()", {}},
    {"abort", "panic()", {"src/util/logging.hh"}},
    {"exit", "fatal()", {"src/util/logging.hh"}},
    {"rand", "vaesa::Rng", {"src/util/rng.hh", "src/util/rng.cc"}},
    {"srand", "vaesa::Rng", {"src/util/rng.hh", "src/util/rng.cc"}},
};

/**
 * Raw BSD socket calls are confined to the serve transport TU so
 * every fd is owned by a serve::Socket and every transport error
 * feeds the one Expected-based error path. Member calls (x.send())
 * and std-qualified names (std::bind) are not socket calls and are
 * skipped; an explicit global qualifier (::socket) is still the real
 * syscall and is flagged. `shutdown`/`poll` are deliberately absent:
 * both are common non-socket identifiers in this codebase.
 */
const std::vector<std::string> socketCallFiles = {
    "src/serve/net.cc",
};

const std::vector<BannedCall> bannedSocketCalls = {
    {"socket", "serve::Socket (serve/net.hh)", socketCallFiles},
    {"bind", "serve::listenUnix()/listenTcp()", socketCallFiles},
    {"listen", "serve::listenUnix()/listenTcp()", socketCallFiles},
    {"accept", "serve::acceptConnection()", socketCallFiles},
    {"accept4", "serve::acceptConnection()", socketCallFiles},
    {"connect", "serve::connectTcp()", socketCallFiles},
    {"recv", "serve::recvFrame()", socketCallFiles},
    {"send", "serve::sendFrame()", socketCallFiles},
    {"recvfrom", "serve::recvFrame()", socketCallFiles},
    {"sendto", "serve::sendFrame()", socketCallFiles},
    {"setsockopt", "serve/net.cc socket setup", socketCallFiles},
    {"getsockname", "serve::boundPort()", socketCallFiles},
};

/**
 * No serve-tree file may call the UNCACHED batch entry point: the
 * daemon scores ScoreConfig/DecodeLatent requests on the service
 * thread through CachingEvaluator::evaluateWorkload (one cache probe
 * per request), and SearchK batches through evaluateCachedBatch (the
 * same engine over the shared cache, with its deadline checked at
 * every chunk claim). A handler dispatching evaluateConfigBatch()
 * would skip the cache and the deadline. Member calls count here —
 * the call is the problem, not the qualifier — so this is a separate
 * check from the socket ban.
 */
const std::string batchEntryName = "evaluateConfigBatch";

const std::vector<std::string> batchConfinedDirs = {
    "src/serve/",
    "tests/lint/",
};

/** Identifiers banned regardless of a following '('. */
struct BannedToken
{
    std::string name;
    std::string instead;
};

const std::vector<BannedToken> bannedStreams = {
    {"cout", "inform() or a CsvWriter"},
    {"printf", "inform()/debugLog()"},
};

const std::vector<BannedToken> bannedClockTokens = {
    {"steady_clock",
     "metrics::monotonicNowNs()/ScopedTimer (util/metrics.hh)"},
};

/** Directory prefixes where bare clock reads stay legal. */
const std::vector<std::string> clockDirPrefixes = {"src/util/"};

/**
 * std::-qualified names banned outside specific homes. Covers the
 * concurrency primitives (all parallelism goes through
 * vaesa::ThreadPool), crash-unsafe output streams (atomicWriteFile),
 * and the raw synchronization vocabulary (the capability-annotated
 * wrappers in util/sync.hh are the only sanctioned spelling, so the
 * clang thread-safety analysis sees every acquisition).
 */
struct BannedStdName
{
    std::string name;
    std::string instead;
    std::vector<std::string> allowedIn;
};

const std::vector<std::string> threadPoolFiles = {
    "src/util/thread_pool.hh",
    "src/util/thread_pool.cc",
};

const std::vector<std::string> syncFiles = {
    "src/util/sync.hh",
};

const std::vector<BannedStdName> bannedStdConcurrency = {
    {"thread", "vaesa::ThreadPool (util/thread_pool.hh)",
     threadPoolFiles},
    {"jthread", "vaesa::ThreadPool (util/thread_pool.hh)",
     threadPoolFiles},
    {"async", "ThreadPool::submit()/forEachChunk()",
     threadPoolFiles},
};

const std::vector<BannedStdName> bannedStdSync = {
    {"mutex", "vaesa::Mutex + MutexLock (util/sync.hh)", syncFiles},
    {"shared_mutex",
     "vaesa::SharedMutex + ReaderLock/WriterLock (util/sync.hh)",
     syncFiles},
    {"recursive_mutex", "vaesa::Mutex (no recursive locking)",
     syncFiles},
    {"timed_mutex", "vaesa::Mutex (util/sync.hh)", syncFiles},
    {"lock_guard", "MutexLock (util/sync.hh)", syncFiles},
    {"unique_lock", "MutexLock (util/sync.hh)", syncFiles},
    {"shared_lock", "ReaderLock (util/sync.hh)", syncFiles},
    {"scoped_lock", "MutexLock (util/sync.hh)", syncFiles},
    {"condition_variable", "std::condition_variable_any waiting on "
                           "a vaesa::Mutex (see util/thread_pool.cc)",
     syncFiles},
};

const std::vector<BannedStdName> bannedStdIo = {
    {"ofstream",
     "atomicWriteFile() (util/atomic_io.hh) or CsvWriter "
     "(bench/studies/csv.hh)",
     {}},
};

/** Path prefixes where std::ofstream stays legal: the crash-safe
 *  writers and the CsvWriter. */
const std::vector<std::string> ofstreamPrefixes = {
    "src/util/", "bench/studies/csv."};

/**
 * Files allowed to own mutable namespace-scope state: the
 * process-wide registries (leaked singletons + their enable flags)
 * whose whole point is owning global state.
 */
const std::vector<std::string> globalAllowlist = {
    "src/util/metrics.cc", // metrics registry + enable flag
    "src/util/trace.cc",   // trace collector + enable flag
    "src/util/logging.cc", // global log level
};

// ---------------------------------------------------------------------------
// Token-level identifier checks
// ---------------------------------------------------------------------------

/** True when tokens[i] begins a `std::name` qualified id; sets name. */
bool
stdQualifiedAt(const std::vector<Token> &tokens, std::size_t i,
               std::string &name)
{
    if (i + 2 >= tokens.size())
        return false;
    if (tokens[i].kind != Token::Kind::Ident ||
        tokens[i].text != "std")
        return false;
    if (tokens[i + 1].kind != Token::Kind::Punct ||
        tokens[i + 1].text != "::")
        return false;
    if (tokens[i + 2].kind != Token::Kind::Ident)
        return false;
    name = tokens[i + 2].text;
    return true;
}

void
checkBannedIdentifiers(const std::string &relPath,
                       const std::vector<Token> &tokens,
                       const TreePolicy &policy)
{
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token &t = tokens[i];
        if (t.kind != Token::Kind::Ident)
            continue;

        for (const BannedCall &ban : bannedCalls) {
            if (t.text != ban.name ||
                pathAllowed(relPath, ban.allowedIn))
                continue;
            if (i + 1 < tokens.size() &&
                tokens[i + 1].kind == Token::Kind::Punct &&
                tokens[i + 1].text == "(")
                report(relPath, t.line,
                       "call of '" + ban.name + "' (use " +
                           ban.instead + " instead)");
        }
        for (const BannedCall &ban : bannedSocketCalls) {
            if (t.text != ban.name ||
                pathAllowed(relPath, ban.allowedIn))
                continue;
            if (i + 1 >= tokens.size() ||
                tokens[i + 1].kind != Token::Kind::Punct ||
                tokens[i + 1].text != "(")
                continue;
            // Member calls are not socket syscalls: x.send( has "."
            // before the name; p->connect( has ">" then "-" (the
            // tokenizer emits single-char puncts except "::").
            if (i > 0 && tokens[i - 1].kind == Token::Kind::Punct) {
                if (tokens[i - 1].text == ".")
                    continue;
                if (tokens[i - 1].text == ">" && i > 1 &&
                    tokens[i - 2].kind == Token::Kind::Punct &&
                    tokens[i - 2].text == "-")
                    continue;
                // Namespace-qualified names (std::bind et al.) are
                // fine; an explicit global `::socket(` is still the
                // real syscall.
                if (tokens[i - 1].text == "::" && i > 1 &&
                    tokens[i - 2].kind == Token::Kind::Ident)
                    continue;
            }
            // An identifier directly before the name makes this a
            // declaration (`int send(...)`) not a call -- except
            // `return send(...)`, which is a call.
            if (i > 0 && tokens[i - 1].kind == Token::Kind::Ident &&
                tokens[i - 1].text != "return")
                continue;
            report(relPath, t.line,
                   "raw socket call '" + ban.name + "' (use " +
                       ban.instead + "; raw sockets live only in "
                       "src/serve/net.cc)");
        }
        if (t.text == batchEntryName &&
            pathInDirs(relPath, batchConfinedDirs) &&
            i + 1 < tokens.size() &&
            tokens[i + 1].kind == Token::Kind::Punct &&
            tokens[i + 1].text == "(" &&
            // `int evaluateConfigBatch(` is a declaration, not a
            // dispatch (`return evaluateConfigBatch(` still is).
            !(i > 0 && tokens[i - 1].kind == Token::Kind::Ident &&
              tokens[i - 1].text != "return"))
            report(relPath, t.line,
                   "direct '" + batchEntryName +
                       "' call in the serve tree (serve scoring "
                       "goes through "
                       "CachingEvaluator::evaluateWorkload, serve "
                       "batches through evaluateCachedBatch)");
        if (!policy.allowStreams)
            for (const BannedToken &ban : bannedStreams)
                if (t.text == ban.name)
                    report(relPath, t.line,
                           "use of '" + ban.name + "' (use " +
                               ban.instead + " instead)");
        if (!policy.allowClocks &&
            !pathInDirs(relPath, clockDirPrefixes))
            for (const BannedToken &ban : bannedClockTokens)
                if (t.text == ban.name)
                    report(relPath, t.line,
                           "use of '" + ban.name + "' (use " +
                               ban.instead + " instead)");

        std::string qualified;
        if (!stdQualifiedAt(tokens, i, qualified))
            continue;
        const int line = tokens[i + 2].line;
        for (const BannedStdName &ban : bannedStdConcurrency)
            if (qualified == ban.name &&
                !pathAllowed(relPath, ban.allowedIn))
                report(relPath, line,
                       "use of 'std::" + ban.name + "' (use " +
                           ban.instead + " instead)");
        if (!policy.allowOfstream &&
            !pathInDirs(relPath, ofstreamPrefixes))
            for (const BannedStdName &ban : bannedStdIo)
                if (qualified == ban.name)
                    report(relPath, line,
                           "use of 'std::" + ban.name + "' (use " +
                               ban.instead + " instead)");
        if (policy.checkSyncPrimitives)
            for (const BannedStdName &ban : bannedStdSync)
                if (qualified == ban.name &&
                    !pathAllowed(relPath, ban.allowedIn))
                    report(relPath, line,
                           "use of 'std::" + ban.name + "' (use " +
                               ban.instead + " instead)");
    }
}

// ---------------------------------------------------------------------------
// Kernel containment (SIMD / OpenMP), on the stripped text
// ---------------------------------------------------------------------------

const std::vector<std::string> kernelDirPrefixes = {
    "src/tensor/kernels/",
};

const std::vector<std::string> simdIncludeNames = {
    "immintrin.h", "xmmintrin.h", "emmintrin.h", "pmmintrin.h",
    "smmintrin.h", "tmmintrin.h", "nmmintrin.h", "avxintrin.h",
    "avx2intrin.h", "arm_neon.h",
};

int
lineOfOffset(const std::string &text, std::size_t offset)
{
    return 1 + static_cast<int>(
                   std::count(text.begin(),
                              text.begin() +
                                  static_cast<std::ptrdiff_t>(offset),
                              '\n'));
}

void
checkKernelOnlyConstructs(const std::string &relPath,
                          const std::string &code)
{
    if (pathInDirs(relPath, kernelDirPrefixes))
        return;
    // Intrinsic headers: string-literal includes are stripped, but
    // the angle-bracket form survives and is what intrinsics use.
    for (const std::string &name : simdIncludeNames) {
        const std::size_t pos = code.find("<" + name + ">");
        if (pos != std::string::npos)
            report(relPath, lineOfOffset(code, pos),
                   "include of <" + name + "> (raw SIMD intrinsics "
                   "are confined to src/tensor/kernels/)");
    }
    // Intrinsic calls: identifiers starting with _mm (covers _mm_,
    // _mm256_, _mm512_).
    std::size_t pos = 0;
    while ((pos = code.find("_mm", pos)) != std::string::npos) {
        const bool boundedLeft =
            pos == 0 || !isIdentChar(code[pos - 1]);
        const std::size_t end = pos + 3;
        const bool intrinsicTail =
            end < code.size() &&
            (code[end] == '_' ||
             std::isdigit(static_cast<unsigned char>(code[end])));
        if (boundedLeft && intrinsicTail) {
            report(relPath, lineOfOffset(code, pos),
                   "raw SIMD intrinsic (confined to "
                   "src/tensor/kernels/; use the kernels:: entry "
                   "points instead)");
            pos = code.find('\n', pos);
            if (pos == std::string::npos)
                break;
        }
        pos += 3;
    }
    // OpenMP pragmas: "#pragma omp" with any interior whitespace.
    pos = 0;
    while ((pos = code.find("#pragma", pos)) != std::string::npos) {
        std::size_t i = pos + 7;
        while (i < code.size() &&
               std::isspace(static_cast<unsigned char>(code[i])) &&
               code[i] != '\n')
            ++i;
        if (code.compare(i, 3, "omp") == 0 &&
            (i + 3 >= code.size() || !isIdentChar(code[i + 3]))) {
            report(relPath, lineOfOffset(code, pos),
                   "'#pragma omp' (OpenMP is confined to "
                   "src/tensor/kernels/; use vaesa::ThreadPool "
                   "instead)");
        }
        pos = i;
    }
}

// ---------------------------------------------------------------------------
// Metric and span taxonomy
// ---------------------------------------------------------------------------

/** Trees whose metric and span names must be documented. */
const std::vector<std::string> metricTaxonomyDirs = {
    "src/",
    "tests/lint/",
};

/** Registry entry points whose first argument is a metric name. */
const std::vector<std::string> metricFactoryNames = {
    "counter", "gauge", "histogram"};

/** The trace type whose constructor argument is a span name. */
const std::vector<std::string> spanTypeNames = {"Span"};

/** The taxonomy, relative to the repo root. */
const std::string taxonomyDocPath = "docs/OBSERVABILITY.md";

/** What the taxonomy documents. */
struct Taxonomy
{
    /** Every backticked span of the file. */
    std::set<std::string> backticked;

    /** First-column names of the metric table, with their lines. */
    std::map<std::string, int> metricRows;

    /** First-column names of the span table, with their lines. */
    std::map<std::string, int> spanRows;
};

/** Metric and span names that src/ registers as literals. */
struct Registered
{
    std::set<std::string> metrics;
    std::set<std::string> spans;
};

Registered registeredInSrc;

/** Every backticked span of @p doc. */
std::set<std::string>
backtickedSpans(const std::string &doc)
{
    std::set<std::string> spans;
    std::size_t open = doc.find('`');
    while (open != std::string::npos) {
        const std::size_t close = doc.find('`', open + 1);
        if (close == std::string::npos)
            break;
        spans.insert(doc.substr(open + 1, close - open - 1));
        open = doc.find('`', close + 1);
    }
    return spans;
}

/**
 * The backticked first-column names of the table in the section of
 * @p doc headed @p heading, each with its 1-based line.
 */
std::map<std::string, int>
tableRows(const std::string &doc, const std::string &heading)
{
    std::map<std::string, int> rows;
    std::istringstream in(doc);
    std::string line;
    bool inSection = false;
    for (int number = 1; std::getline(in, line); ++number) {
        if (line.rfind("## ", 0) == 0) {
            inSection = line == heading;
            continue;
        }
        if (!inSection || line.rfind('|', 0) != 0)
            continue;
        const std::size_t cellEnd = line.find('|', 1);
        const std::size_t open = line.find('`');
        if (open == std::string::npos || open > cellEnd)
            continue;
        const std::size_t close = line.find('`', open + 1);
        if (close == std::string::npos || close > cellEnd)
            continue;
        rows.emplace(line.substr(open + 1, close - open - 1), number);
    }
    return rows;
}

std::size_t
skipSpaces(const std::string &code, std::size_t i)
{
    while (i < code.size() &&
           std::isspace(static_cast<unsigned char>(code[i])))
        ++i;
    return i;
}

std::size_t
identifierEnd(const std::string &code, std::size_t i)
{
    while (i < code.size() && isIdentChar(code[i]))
        ++i;
    return i;
}

/**
 * The string literal that opens the argument list after each of
 * @p words in @p code: `counter("name")`, or with @p declarator also
 * a declared variable, `Span span("name")`. @p code is the stripped
 * text, whose quotes sit at the same offsets as in @p text, so each
 * literal is read back from the original; it comes with its offset.
 */
std::vector<std::pair<std::string, std::size_t>>
literalArguments(const std::string &text, const std::string &code,
                 const std::vector<std::string> &words, bool declarator)
{
    std::vector<std::pair<std::string, std::size_t>> found;
    std::size_t pos = 0;
    while (pos < code.size()) {
        if (!isIdentStart(code[pos])) {
            ++pos;
            continue;
        }
        const std::size_t end = identifierEnd(code, pos);
        const std::string word = code.substr(pos, end - pos);
        pos = end;
        if (std::find(words.begin(), words.end(), word) == words.end())
            continue;
        std::size_t i = skipSpaces(code, end);
        if (declarator && i < code.size() && isIdentStart(code[i]))
            i = skipSpaces(code, identifierEnd(code, i));
        if (i >= code.size() ||
            (code[i] != '(' && !(declarator && code[i] == '{')))
            continue;
        i = skipSpaces(code, i + 1);
        if (i >= code.size() || code[i] != '"')
            continue;
        const std::size_t close = code.find('"', i + 1);
        if (close == std::string::npos)
            break;
        found.emplace_back(text.substr(i + 1, close - i - 1), i);
        pos = close + 1;
    }
    return found;
}

/**
 * Flag `counter("name")`-style registrations whose literal name the
 * taxonomy does not list anywhere, and `Span span("name")` literals
 * without a span-table row. Names registered under src/ are kept for
 * checkTaxonomyRowsRegistered().
 */
void
checkMetricTaxonomy(const std::string &relPath, const std::string &text,
                    const std::string &code, const Taxonomy &taxonomy)
{
    if (!pathInDirs(relPath, metricTaxonomyDirs))
        return;
    const bool inSrc = pathStartsWith(relPath, "src/");
    for (const auto &[name, offset] :
         literalArguments(text, code, metricFactoryNames, false)) {
        if (inSrc)
            registeredInSrc.metrics.insert(name);
        if (taxonomy.backticked.count(name) == 0)
            report(relPath, lineOfOffset(code, offset),
                   "metric '" + name + "' is not in the metric "
                   "taxonomy (add a `" + name + "` row to " +
                   taxonomyDocPath + ")");
    }
    for (const auto &[name, offset] :
         literalArguments(text, code, spanTypeNames, true)) {
        if (inSrc)
            registeredInSrc.spans.insert(name);
        if (taxonomy.spanRows.count(name) == 0)
            report(relPath, lineOfOffset(code, offset),
                   "span '" + name + "' is not in the span "
                   "taxonomy (add a `" + name + "` row to " +
                   taxonomyDocPath + ")");
    }
}

/**
 * The doc -> code direction: every metric-table and span-table row
 * names a literal that src/ still registers, so a retired instrument
 * cannot leave its row behind. Needs the whole of src/ scanned, so
 * it runs on the default scan only.
 */
void
checkTaxonomyRowsRegistered(const Taxonomy &taxonomy)
{
    for (const auto &[name, line] : taxonomy.metricRows)
        if (registeredInSrc.metrics.count(name) == 0)
            report(taxonomyDocPath, line,
                   "metric `" + name + "` has a taxonomy row, but "
                   "no counter()/gauge()/histogram() call in src/ "
                   "registers it (delete the row)");
    for (const auto &[name, line] : taxonomy.spanRows)
        if (registeredInSrc.spans.count(name) == 0)
            report(taxonomyDocPath, line,
                   "span `" + name + "` has a taxonomy row, but no "
                   "trace::Span in src/ records it (delete the row)");
}

// ---------------------------------------------------------------------------
// Header guards
// ---------------------------------------------------------------------------

/** Expected include guard for a header path relative to the repo. */
std::string
expectedGuard(std::string relPath)
{
    const std::string srcPrefix = "src/";
    if (relPath.compare(0, srcPrefix.size(), srcPrefix) == 0)
        relPath = relPath.substr(srcPrefix.size());
    std::string guard = "VAESA_";
    for (char c : relPath) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            guard += '_';
    }
    return guard;
}

void
checkHeaderGuard(const std::string &relPath, const std::string &code)
{
    const std::string want = expectedGuard(relPath);
    std::istringstream in(code);
    std::string line;
    int lineNo = 0;
    int ifndefLine = 0;
    std::string got;
    while (std::getline(in, line)) {
        ++lineNo;
        std::istringstream ls(line);
        std::string directive;
        ls >> directive;
        if (directive == "#ifndef") {
            ls >> got;
            ifndefLine = lineNo;
            break;
        }
    }
    if (got.empty()) {
        report(relPath, 1, "missing '#ifndef " + want +
                               "' header guard");
        return;
    }
    if (got != want) {
        report(relPath, ifndefLine,
               "header guard '" + got + "' does not match path "
               "(expected '" + want + "')");
        return;
    }
    std::string defineGot;
    if (std::getline(in, line)) {
        ++lineNo;
        std::istringstream ls(line);
        std::string directive;
        ls >> directive >> defineGot;
        if (directive != "#define" || defineGot != want) {
            report(relPath, lineNo,
                   "'#ifndef " + want + "' not followed by "
                   "'#define " + want + "'");
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-order analysis
// ---------------------------------------------------------------------------

/** Mutex member name -> declared rank, from src/util/sync.hh. */
using LockTable = std::map<std::string, int>;

/**
 * Extract the VAESA_LOCK_ORDER_ENTRY(name, rank) table from the
 * token stream of src/util/sync.hh. Duplicate names are findings.
 */
LockTable
parseLockTable(const std::string &relPath,
               const std::vector<Token> &tokens)
{
    LockTable table;
    for (std::size_t i = 0; i + 5 < tokens.size(); ++i) {
        if (tokens[i].kind != Token::Kind::Ident ||
            tokens[i].text != "VAESA_LOCK_ORDER_ENTRY")
            continue;
        if (tokens[i + 1].text != "(" ||
            tokens[i + 2].kind != Token::Kind::Ident ||
            tokens[i + 3].text != "," ||
            tokens[i + 4].kind != Token::Kind::Number ||
            tokens[i + 5].text != ")")
            continue; // the #define itself is a Directive token
        const std::string &name = tokens[i + 2].text;
        const int rank = std::stoi(tokens[i + 4].text);
        if (table.count(name))
            report(relPath, tokens[i + 2].line,
                   "duplicate lock-order entry for '" + name + "'");
        else
            table[name] = rank;
    }
    return table;
}

/** RAII guard type names whose declarations acquire a mutex. */
bool
isGuardTypeName(const std::string &name)
{
    return name == "MutexLock" || name == "ReaderLock" ||
           name == "WriterLock";
}

/**
 * Walk one file's tokens tracking live guard declarations by brace
 * depth; every nested acquisition must name table-ranked mutexes
 * with strictly increasing ranks (outer to inner).
 */
void
checkLockOrder(const std::string &relPath,
               const std::vector<Token> &tokens,
               const LockTable &table)
{
    struct Held
    {
        int depth;
        std::string name;
        bool ranked;
        int rank;
    };
    std::vector<Held> stack;
    int depth = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token &t = tokens[i];
        if (t.kind == Token::Kind::Punct) {
            if (t.text == "{") {
                ++depth;
            } else if (t.text == "}") {
                --depth;
                while (!stack.empty() &&
                       stack.back().depth > depth)
                    stack.pop_back();
            }
            continue;
        }
        if (t.kind != Token::Kind::Ident ||
            !isGuardTypeName(t.text))
            continue;
        // Declaration shape: GuardType varName ( firstArg [, ...] )
        if (i + 2 >= tokens.size() ||
            tokens[i + 1].kind != Token::Kind::Ident ||
            tokens[i + 2].kind != Token::Kind::Punct ||
            tokens[i + 2].text != "(")
            continue;
        // The guarded mutex is the last identifier of the first
        // argument (covers `m`, `obj.m`, `shard.shardMutex`).
        std::string mutexName;
        int parens = 1;
        for (std::size_t j = i + 3;
             j < tokens.size() && parens > 0; ++j) {
            const Token &a = tokens[j];
            if (a.kind == Token::Kind::Punct) {
                if (a.text == "(")
                    ++parens;
                else if (a.text == ")")
                    --parens;
                else if (a.text == "," && parens == 1)
                    break;
                continue;
            }
            if (a.kind == Token::Kind::Ident)
                mutexName = a.text;
        }
        if (mutexName.empty())
            continue;
        const auto entry = table.find(mutexName);
        const bool ranked = entry != table.end();
        if (!stack.empty()) {
            const Held &outer = stack.back();
            if (!outer.ranked)
                report(relPath, t.line,
                       "nested lock acquisition while holding '" +
                           outer.name +
                           "', which is not in the lock-order table "
                           "(add a VAESA_LOCK_ORDER_ENTRY to "
                           "src/util/sync.hh)");
            else if (!ranked)
                report(relPath, t.line,
                       "nested acquisition of '" + mutexName +
                           "', which is not in the lock-order table "
                           "(add a VAESA_LOCK_ORDER_ENTRY to "
                           "src/util/sync.hh)");
            else if (entry->second <= outer.rank)
                report(relPath, t.line,
                       "lock-order violation: '" + mutexName +
                           "' (rank " +
                           std::to_string(entry->second) +
                           ") acquired while holding '" +
                           outer.name + "' (rank " +
                           std::to_string(outer.rank) +
                           "); ranks must strictly increase "
                           "outer to inner (src/util/sync.hh)");
        }
        stack.push_back(
            {depth, mutexName, ranked, ranked ? entry->second : 0});
    }
}

// ---------------------------------------------------------------------------
// Mutable namespace-scope globals
// ---------------------------------------------------------------------------

/** Keywords whose statements are never mutable-global definitions. */
bool
isGlobalExemptKeyword(const std::string &word)
{
    return word == "using" || word == "typedef" ||
           word == "extern" || word == "template" ||
           word == "friend" || word == "static_assert" ||
           word == "struct" || word == "class" ||
           word == "union" || word == "enum" ||
           word == "namespace" || word == "concept" ||
           word == "operator" || word == "const" ||
           word == "constexpr" || word == "constinit" ||
           word == "consteval";
}

/**
 * Flag mutable variables at namespace scope. Process-wide state
 * belongs to the sanctioned registries (globalAllowlist) -- anywhere
 * else it is hidden coupling the next subsystem trips over, and a
 * data race the moment two pool workers touch it.
 */
void
checkMutableGlobals(const std::string &relPath,
                    const std::vector<Token> &tokens)
{
    if (pathAllowed(relPath, globalAllowlist))
        return;
    enum class Scope { Namespace, Other };
    std::vector<Scope> scopes;
    std::vector<Token> stmt;
    bool stmtHasBraceInit = false;
    bool justClosedBrace = false;

    const auto atNamespaceLevel = [&] {
        return std::all_of(scopes.begin(), scopes.end(),
                           [](Scope s) {
                               return s == Scope::Namespace;
                           });
    };
    const auto analyze = [&] {
        if (stmt.empty())
            return;
        bool sawEq = false;
        std::size_t firstParen = stmt.size();
        std::size_t firstEq = stmt.size();
        for (std::size_t k = 0; k < stmt.size(); ++k) {
            const Token &s = stmt[k];
            if (s.kind == Token::Kind::Ident &&
                isGlobalExemptKeyword(s.text))
                return;
            if (s.kind == Token::Kind::Punct) {
                if (s.text == "(" && firstParen == stmt.size())
                    firstParen = k;
                if (s.text == "=" && firstEq == stmt.size()) {
                    firstEq = k;
                    sawEq = true;
                }
            }
        }
        // A '(' before any initializer means a function declaration
        // or a namespace-scope macro invocation -- not a variable.
        if (firstParen < stmt.size() && firstParen < firstEq)
            return;
        const bool initialized = sawEq || stmtHasBraceInit;
        bool plainDecl = false;
        if (!initialized && stmt.size() >= 2) {
            const Token &last = stmt.back();
            plainDecl =
                last.kind == Token::Kind::Ident ||
                (last.kind == Token::Kind::Punct &&
                 last.text == "]");
            if (stmt[0].kind != Token::Kind::Ident)
                plainDecl = false;
        }
        if (initialized || plainDecl)
            report(relPath, stmt[0].line,
                   "mutable namespace-scope global '" +
                       stmt[0].text +
                       " ...' (make it const/constexpr, move it "
                       "into a function-local static, or register "
                       "it as a sanctioned registry in "
                       "tools/check/check.cc)");
    };

    for (const Token &t : tokens) {
        if (t.kind == Token::Kind::Directive)
            continue;
        const bool isPunct = t.kind == Token::Kind::Punct;
        if (justClosedBrace) {
            justClosedBrace = false;
            if (isPunct && t.text == ";") {
                // `... { ... } ;` -- brace-initialized variable or
                // a type definition (the keyword scan skips those).
                stmtHasBraceInit = true;
                analyze();
                stmt.clear();
                stmtHasBraceInit = false;
                continue;
            }
            // A definition body (function, namespace, ...) ended;
            // whatever preceded it is not a variable statement.
            stmt.clear();
            stmtHasBraceInit = false;
        }
        if (isPunct && t.text == "{") {
            Scope kind = Scope::Other;
            if (atNamespaceLevel()) {
                for (const Token &s : stmt)
                    if (s.kind == Token::Kind::Ident &&
                        s.text == "namespace") {
                        kind = Scope::Namespace;
                        break;
                    }
                if (kind == Scope::Namespace)
                    stmt.clear();
            }
            scopes.push_back(kind);
            continue;
        }
        if (isPunct && t.text == "}") {
            if (!scopes.empty()) {
                const Scope closed = scopes.back();
                scopes.pop_back();
                if (closed == Scope::Other && atNamespaceLevel())
                    justClosedBrace = true;
                else
                    stmt.clear();
            }
            continue;
        }
        if (!atNamespaceLevel())
            continue;
        if (isPunct && t.text == ";") {
            analyze();
            stmt.clear();
            stmtHasBraceInit = false;
            continue;
        }
        stmt.push_back(t);
    }
}

// ---------------------------------------------------------------------------
// Generated bench artifacts
// ---------------------------------------------------------------------------

/** True when relPath lives in a bench/ tree (top level or nested). */
bool
inBenchTree(const std::string &relPath)
{
    return pathStartsWith(relPath, "bench/") ||
           relPath.find("/bench/") != std::string::npos;
}

/**
 * Bench executables write measurements to bench_out/ (gitignored)
 * plus one sanctioned BENCH_<name>.json snapshot at the repo root; a
 * .csv/.json sitting inside bench/ is a stale generated artifact
 * that drifts from the code the moment anyone reruns the bench.
 * (Golden test data is exempt by construction: it lives next to its
 * test under tests/, not in a bench/ tree.)
 */
void
checkGeneratedArtifact(const std::string &relPath)
{
    const std::string ext = fs::path(relPath).extension().string();
    if (ext != ".csv" && ext != ".json")
        return;
    if (!inBenchTree(relPath))
        return;
    report(relPath, 1,
           "generated bench artifact '" + relPath +
               "' (bench outputs belong in bench_out/, with the "
               "checked-in snapshot as BENCH_<name>.json at the "
               "repo root)");
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool
shouldScan(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".hh" || ext == ".cc" || ext == ".cpp" ||
           ext == ".hpp";
}

int
scanTree(const fs::path &root, const fs::path &subdir,
         const LockTable &table, const Taxonomy &taxonomy)
{
    const fs::path base = root / subdir;
    if (!fs::exists(base)) {
        std::cerr << "vaesa_check: no such directory: " << base
                  << "\n";
        return 2;
    }
    int scanned = 0;
    std::vector<fs::path> files;
    for (const auto &entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file())
            continue;
        if (shouldScan(entry.path())) {
            files.push_back(entry.path());
            continue;
        }
        // Non-source files get the generated-artifact scan (the
        // token checks below only ever see source extensions).
        checkGeneratedArtifact(
            fs::relative(entry.path(), root).generic_string());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            std::cerr << "vaesa_check: cannot read " << file << "\n";
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string relPath =
            fs::relative(file, root).generic_string();
        const std::string text = buf.str();
        const std::string code = stripCommentsAndStrings(text);
        const std::vector<Token> tokens = tokenize(code);
        const TreePolicy policy = policyFor(relPath);
        checkBannedIdentifiers(relPath, tokens, policy);
        checkKernelOnlyConstructs(relPath, code);
        checkLockOrder(relPath, tokens, table);
        checkMetricTaxonomy(relPath, text, code, taxonomy);
        if (policy.checkGlobals)
            checkMutableGlobals(relPath, tokens);
        if (file.extension() == ".hh" || file.extension() == ".hpp")
            checkHeaderGuard(relPath, code);
        ++scanned;
    }
    return scanned == 0 ? 2 : 0;
}

/** Read + tokenize src/util/sync.hh and extract the rank table. */
LockTable
loadLockTable(const fs::path &root)
{
    const fs::path syncPath = root / "src" / "util" / "sync.hh";
    std::ifstream in(syncPath, std::ios::binary);
    if (!in) {
        std::cerr << "vaesa_check: warning: cannot read " << syncPath
                  << "; lock-order table is empty\n";
        return {};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string code = stripCommentsAndStrings(buf.str());
    return parseLockTable("src/util/sync.hh", tokenize(code));
}

/** Read the names docs/OBSERVABILITY.md documents. */
Taxonomy
loadTaxonomy(const fs::path &root)
{
    const fs::path docPath = root / taxonomyDocPath;
    std::ifstream in(docPath, std::ios::binary);
    if (!in) {
        std::cerr << "vaesa_check: warning: cannot read " << docPath
                  << "; every registered metric is undocumented\n";
        return {};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();
    return {backtickedSpans(doc), tableRows(doc, "## Metric taxonomy"),
            tableRows(doc, "## Span taxonomy")};
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: vaesa_check <repo-root> [subdir ...]\n";
        return 2;
    }
    const fs::path root = argv[1];
    std::vector<fs::path> subdirs;
    for (int i = 2; i < argc; ++i)
        subdirs.emplace_back(argv[i]);
    const bool defaultScan = subdirs.empty();
    if (defaultScan) {
        subdirs.emplace_back("src");
        subdirs.emplace_back("tools");
        subdirs.emplace_back("bench");
    }

    const LockTable table = loadLockTable(root);
    const Taxonomy taxonomy = loadTaxonomy(root);

    for (const fs::path &subdir : subdirs) {
        const int rc = scanTree(root, subdir, table, taxonomy);
        if (rc == 2)
            return 2;
    }
    if (defaultScan)
        checkTaxonomyRowsRegistered(taxonomy);

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return a.file != b.file ? a.file < b.file
                                          : a.line < b.line;
              });
    for (const Finding &f : findings)
        std::cout << f.file << ":" << f.line << ": error: "
                  << f.message << "\n";
    if (!findings.empty()) {
        std::cout << "vaesa_check: " << findings.size()
                  << " finding(s)\n";
        return 1;
    }
    std::cout << "vaesa_check: clean\n";
    return 0;
}
