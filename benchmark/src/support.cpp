#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "corpus/dataset_cache.h"
#include "corpus/ingest.h"
#include "corpus/suite_dump.h"
#include "support/argparse.h"

extern char** environ;

namespace irgnn_bench {

namespace fs = std::filesystem;
using namespace irgnn;

double now_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

void RunResult::check(const std::string& name, bool ok,
                      const std::string& message) {
  auto [it, inserted] = checks.emplace(name, ok);
  if (!inserted) it->second = it->second && ok;
  if (!ok) failures.push_back(name + ": " + message);
}

// --- Trace --------------------------------------------------------------------

void Trace::add(const std::string& name, const std::string& cat,
                double start_us, double end_us, int pid) {
  if (!enabled_) return;
  spans_.push_back({name, cat, start_us, end_us - start_us,
                    pid != 0 ? pid : static_cast<int>(getpid()), 0});
}

namespace {

const char* source_name(std::uint8_t source) {
  static const char* const kNames[] = {"cache", "batch", "coalesced", "shed"};
  return source < 4 ? kNames[source] : "none";
}

}  // namespace

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const Span& s : spans_) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":%d,\"tid\":%d}",
                 s.name.c_str(), s.cat.c_str(), s.start_us, s.dur_us, s.pid,
                 s.tid);
  }
  const int pid = static_cast<int>(getpid());
  for (const RequestSpan& r : requests_) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"b\","
                 "\"id\":%llu,\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{"
                 "\"phase\":%d,\"queue_us\":%d,\"compute_us\":%d,"
                 "\"source\":\"%s\"}},\n"
                 "{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"e\","
                 "\"id\":%llu,\"ts\":%.3f,\"pid\":%d,\"tid\":%d}",
                 static_cast<unsigned long long>(r.id), r.send_us, pid,
                 100 + r.conn, r.phase, r.queue_us, r.compute_us,
                 source_name(r.source), static_cast<unsigned long long>(r.id),
                 r.recv_us, pid, 100 + r.conn);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

bool Trace::well_nested() const {
  std::map<std::pair<int, int>, std::vector<const Span*>> lanes;
  for (const Span& s : spans_) {
    if (s.dur_us < 0) return false;
    lanes[{s.pid, s.tid}].push_back(&s);
  }
  constexpr double kEps = 1e-3;
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
      if (a->start_us != b->start_us) return a->start_us < b->start_us;
      return a->dur_us > b->dur_us;
    });
    std::vector<double> open_ends;
    for (const Span* s : spans) {
      while (!open_ends.empty() && open_ends.back() <= s->start_us + kEps)
        open_ends.pop_back();
      const double end = s->start_us + s->dur_us;
      if (!open_ends.empty() && end > open_ends.back() + kEps) return false;
      open_ends.push_back(end);
    }
  }
  for (const RequestSpan& r : requests_)
    if (r.recv_us < r.send_us) return false;
  return true;
}

// --- Child processes ----------------------------------------------------------

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Child::start(const std::vector<std::string>& argv, std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = "pipe2 failed";
    return false;
  }
  // Everything the child touches is built before fork: between fork and
  // exec only async-signal-safe calls run.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<char*> env;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "IRGNN_NUM_THREADS=", 18) != 0) env.push_back(*e);
  env.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execve(args[0], args.data(), env.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  buffer_.clear();
  return true;
}

bool Child::read_line(std::string* line, int timeout_ms) {
  const double deadline = now_us() + timeout_ms * 1e3;
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    if (out_fd_ < 0) break;
    const double left_ms = (deadline - now_us()) / 1e3;
    if (left_ms <= 0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::ceil(left_ms)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
      break;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  if (buffer_.empty()) return false;
  line->swap(buffer_);
  buffer_.clear();
  return true;
}

void Child::signal(int sig) {
  if (pid_ > 0) ::kill(pid_, sig);
}

bool Child::wait(int timeout_ms, int* exit_code) {
  *exit_code = -1;
  if (pid_ <= 0) return false;
  const double deadline = now_us() + timeout_ms * 1e3;
  int status = 0;
  bool exited = false;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exited = true;
      break;
    }
    if (r < 0 && errno != EINTR) break;
    if (now_us() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  } else if (WIFEXITED(status)) {
    *exit_code = WEXITSTATUS(status);
  }
  pid_ = -1;
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  return exited;
}

// --- /proc ----------------------------------------------------------------------

bool proc_cpu_us(pid_t pid, double* out) {
  // Nanoseconds on CPU per thread (schedstat) where the kernel has them;
  // otherwise clock ticks (10 ms) from /proc/<pid>/stat.
  const std::string tasks_dir = "/proc/" + std::to_string(pid) + "/task";
  if (DIR* tasks = ::opendir(tasks_dir.c_str())) {
    double ns = 0;
    int read = 0;
    while (dirent* entry = ::readdir(tasks)) {
      std::string schedstat;
      if (entry->d_name[0] != '.' &&
          read_file(tasks_dir + "/" + entry->d_name + "/schedstat", &schedstat)) {
        ns += std::strtod(schedstat.c_str(), nullptr);
        ++read;
      }
    }
    ::closedir(tasks);
    if (read > 0) {
      *out = ns / 1e3;
      return true;
    }
  }
  std::string stat;
  if (!read_file("/proc/" + std::to_string(pid) + "/stat", &stat)) return false;
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream in(stat.substr(close + 1));
  std::string field;
  for (int i = 3; i <= 13; ++i) in >> field;
  unsigned long long utime = 0, stime = 0;
  if (!(in >> utime >> stime)) return false;
  *out = static_cast<double>(utime + stime) * 1e6 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
  return true;
}

namespace {

/// Value of a "Key:   123 kB"-style line of a /proc status file, or 0.
std::uint64_t status_field(const std::string& status, const char* key) {
  const std::size_t at = status.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + std::strlen(key), nullptr, 10);
}

}  // namespace

std::uint64_t proc_ctx_switches(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return 0;
  std::uint64_t total = 0;
  while (dirent* entry = ::readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    std::string status;
    if (!read_file(dir + "/" + entry->d_name + "/status", &status)) continue;
    total += status_field(status, "\nvoluntary_ctxt_switches:") +
             status_field(status, "\nnonvoluntary_ctxt_switches:");
  }
  ::closedir(tasks);
  return total;
}

double proc_peak_rss_mb(pid_t pid) {
  std::string status;
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  if (!read_file(path, &status)) return 0;
  return static_cast<double>(status_field(status, "VmHWM:")) / 1024.0;
}

double self_cpu_us() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

// --- JSON -----------------------------------------------------------------------

const Json* Json::get(const std::string& key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(Json* out, std::string* error) {
    if (!value(out, 0) || (skip(), pos_ != s_.size())) {
      *error = "malformed JSON near offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool eat(char c) {
    skip();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool string(std::string* out) {
    if (!eat('"')) return false;
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      c = s_[pos_++];
      switch (c) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          const unsigned long code =
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          pos_ += 4;
          break;
        }
        default: out->push_back(c);
      }
    }
    return false;
  }

  bool value(Json* out, int depth) {
    if (depth > 64) return false;
    skip();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = Json::Type::kObject;
      if (eat('}')) return true;
      do {
        std::string key;
        Json member;
        if (!string(&key) || !eat(':') || !value(&member, depth + 1))
          return false;
        out->object.emplace_back(std::move(key), std::move(member));
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      ++pos_;
      out->type = Json::Type::kArray;
      if (eat(']')) return true;
      do {
        Json element;
        if (!value(&element, depth + 1)) return false;
        out->array.push_back(std::move(element));
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return string(&out->string);
    }
    if (literal("true") || literal("false")) {
      out->type = Json::Type::kBool;
      out->boolean = c == 't';
      return true;
    }
    if (literal("null")) return true;
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) return false;
    out->type = Json::Type::kNumber;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool metric_list(const Json* list, bool with_bound,
                 std::vector<MetricSpec>* out) {
  if (list == nullptr || list->type != Json::Type::kArray) return false;
  for (const Json& m : list->array) {
    const Json* name = m.get("name");
    const Json* unit = m.get("unit");
    const Json* better = m.get("better");
    const Json* bound = m.get("bound");
    if (name == nullptr || unit == nullptr || better == nullptr ||
        (with_bound && bound == nullptr))
      return false;
    out->push_back({name->string, unit->string, better->string,
                    bound != nullptr ? bound->number : 0.0});
  }
  return true;
}

}  // namespace

bool parse_json(const std::string& text, Json* out, std::string* error) {
  *out = Json{};
  return JsonParser(text).parse(out, error);
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool load_bench_spec(const std::string& path, BenchSpec* out,
                     std::string* error) {
  std::string text;
  if (!read_file(path, &text)) {
    *error = "cannot read " + path;
    return false;
  }
  Json root;
  if (!parse_json(text, &root, error)) return false;
  *out = BenchSpec{};
  const Json* workloads = root.get("workloads");
  if (workloads != nullptr)
    for (const Json& w : workloads->array)
      if (const Json* name = w.get("name")) out->workloads.push_back(name->string);
  if (out->workloads.empty() ||
      !metric_list(root.get("end_to_end"), true, &out->end_to_end) ||
      !metric_list(root.get("per_layer"), false, &out->per_layer)) {
    *error = path + " lacks workloads, end_to_end or per_layer entries";
    return false;
  }
  return true;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// --- Build facts --------------------------------------------------------------

std::string state_dir() { return IRGNN_BENCH_STATE_DIR; }
std::string served_path() { return IRGNN_SERVED_PATH; }

std::string self_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

// --- The per-seed corpus ------------------------------------------------------

namespace {

/// Per-seed corpora kept on disk (57 MB each at 256 sequences); older ones
/// are deleted when a new seed needs room.
constexpr std::size_t kCorporaKept = 16;

void evict_old_corpora(const fs::path& root) {
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return;
  std::vector<std::pair<fs::file_time_type, fs::path>> ready;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const fs::path marker = entry.path() / "ready";
    if (fs::exists(marker, ec))
      ready.emplace_back(fs::last_write_time(marker, ec), entry.path());
    else
      fs::remove_all(entry.path(), ec);
  }
  std::sort(ready.begin(), ready.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = kCorporaKept - 1; i < ready.size(); ++i)
    fs::remove_all(ready[i].second, ec);
}

/// Flag-sequence variants per region in the dump: 256 for a measured run
/// (14336 files, 530 unique graphs at the default seed), 8 for --smoke.
std::size_t dump_sequences(bool smoke) { return smoke ? 8 : 256; }

corpus::CacheLimits model_limits() {
  corpus::CacheLimits limits;
  limits.max_feature =
      static_cast<std::int32_t>(graph::vocabulary_size()) - 1;
  return limits;
}

}  // namespace

bool load_corpus(std::uint64_t seed, bool smoke, Corpus* out,
                 std::string* error) {
  const fs::path root = fs::path(state_dir()) / "corpus";
  const fs::path dir =
      root / ("seed-" + std::to_string(seed) + (smoke ? "-smoke" : ""));
  out->files_dir = (dir / "files").string();
  out->traffic_path = (dir / "traffic.irds").string();

  std::error_code ec;
  if (!fs::exists(dir / "ready", ec)) {
    evict_old_corpora(root);
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    Child prepare;
    if (!prepare.start({self_path(), "prepare", "--dir", dir.string(), "--seed",
                        std::to_string(seed), "--sequences",
                        std::to_string(dump_sequences(smoke))},
                       error))
      return false;
    std::string line;
    while (prepare.read_line(&line, 170000))
      std::fprintf(stderr, "%s\n", line.c_str());
    int code = -1;
    if (!prepare.wait(10000, &code) || code != 0 || !fs::exists(dir / "ready")) {
      *error = "corpus preparation failed for seed " + std::to_string(seed);
      return false;
    }
  }

  corpus::DatasetCacheReader reader;
  const support::Status status = reader.open(out->traffic_path, model_limits());
  if (!status.ok() || reader.num_graphs() == 0) {
    *error = out->traffic_path + ": " +
             (status.ok() ? "no graphs" : status.message());
    return false;
  }
  out->graphs.assign(static_cast<std::size_t>(reader.num_graphs()), {});
  for (std::uint64_t i = 0; i < reader.num_graphs(); ++i)
    reader.materialize(i, &out->graphs[static_cast<std::size_t>(i)]);
  return true;
}

int prepare_main(int argc, char** argv) {
  ArgParser parser("irgnn_bench prepare",
                   "dump the suite corpus for one seed and cache its unique "
                   "graphs (run by irgnn_bench, once per seed)");
  parser.add("dir", "", "corpus directory to fill")
      .add("seed", "1", "flag-sequence seed of the dump")
      .add("sequences", "256", "flag-sequence variants per region");
  if (!parser.parse(argc, argv)) return 1;
  const fs::path dir = parser.get_string("dir");
  const std::string files = (dir / "files").string();

  corpus::SuiteDumpOptions dump;
  dump.num_sequences = static_cast<std::size_t>(parser.get_int("sequences"));
  dump.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  support::Status status = corpus::dump_suite(files, dump);
  corpus::IngestResult ingest;
  if (status.ok()) status = corpus::ingest_directory(files, {}, &ingest);
  if (status.ok() && ingest.stats.files_failed != 0)
    status = support::Status::InvalidArgument("dumped files failed to ingest");
  if (status.ok())
    status = corpus::write_dataset_cache(
        (dir / "traffic.irds").string(), ingest.graphs, ingest.fingerprints,
        ingest.corpus_hash, ingest.options_hash);
  if (!status.ok()) {
    std::fprintf(stderr, "prepare: %s\n", status.message());
    return 1;
  }
  std::ofstream(dir / "ready") << ingest.graphs.size() << "\n";
  std::printf("prepared %s: %llu files, %zu unique graphs\n", dir.c_str(),
              static_cast<unsigned long long>(ingest.stats.files_scanned),
              ingest.graphs.size());
  return 0;
}

}  // namespace irgnn_bench
