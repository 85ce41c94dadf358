#include "src/kern/trace_replay.h"

#include <charconv>
#include <map>
#include <sstream>
#include <vector>

namespace kern {

namespace {

// Tokenize one line, dropping comments.
std::vector<std::string> Tokens(std::string_view line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == '#') {
      break;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    out.push_back(cur);
  }
  return out;
}

bool ParseU64(const std::string& s, std::uint64_t* out) {
  int base = 10;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    begin += 2;
  }
  auto [ptr, ec] = std::from_chars(begin, end, *out, base);
  return ec == std::errc() && ptr == end;
}

bool ParseByte(const std::string& s, std::byte* out) {
  std::uint64_t v = 0;
  if (!ParseU64(s, &v) || v > 0xff) {
    return false;
  }
  *out = static_cast<std::byte>(v);
  return true;
}

struct ReplayState {
  Kernel& k;
  std::map<std::string, Proc*> procs;
  std::map<std::string, sim::Vaddr> regs;

  Proc* FindProc(const std::string& name) {
    auto it = procs.find(name);
    return it == procs.end() ? nullptr : it->second;
  }
};

// Execute one tokenized op; returns kOk or an error, with *msg set.
int ExecOp(ReplayState& st, const std::vector<std::string>& t, std::string* msg) {
  const std::string& op = t[0];
  auto fail = [&](const std::string& m) {
    *msg = m;
    return sim::kErrInval;
  };

  if (op == "proc") {
    if (t.size() != 2) {
      return fail("proc needs: proc NAME");
    }
    st.procs[t[1]] = st.k.Spawn();
    return sim::kOk;
  }
  if (op == "fork") {
    if (t.size() != 3) {
      return fail("fork needs: fork PARENT CHILD");
    }
    Proc* parent = st.FindProc(t[1]);
    if (parent == nullptr) {
      return fail("unknown process " + t[1]);
    }
    st.procs[t[2]] = st.k.Fork(parent);
    return sim::kOk;
  }
  if (op == "exit") {
    if (t.size() != 2) {
      return fail("exit needs: exit NAME");
    }
    Proc* p = st.FindProc(t[1]);
    if (p == nullptr) {
      return fail("unknown process " + t[1]);
    }
    st.k.Exit(p);
    st.procs.erase(t[1]);
    return sim::kOk;
  }
  if (op == "file") {
    std::uint64_t pages = 0;
    if (t.size() != 3 || !ParseU64(t[2], &pages)) {
      return fail("file needs: file /name PAGES");
    }
    st.k.fs().CreateFilePattern(t[1], pages * sim::kPageSize);
    return sim::kOk;
  }
  if (op == "daemon") {
    std::uint64_t target = 0;
    if (t.size() != 2 || !ParseU64(t[1], &target)) {
      return fail("daemon needs: daemon TARGET");
    }
    st.k.vm().PageDaemon(target);
    return sim::kOk;
  }

  // All remaining ops start with: OP PROC $REG ...
  if (t.size() < 3 || t[2].empty() || t[2][0] != '$') {
    return fail(op + " needs: " + op + " PROC $reg ...");
  }
  Proc* p = st.FindProc(t[1]);
  if (p == nullptr) {
    return fail("unknown process " + t[1]);
  }
  const std::string reg = t[2].substr(1);

  if (op == "mmap") {
    std::uint64_t pages = 0;
    if (t.size() < 4 || !ParseU64(t[3], &pages)) {
      return fail("mmap needs: mmap PROC $reg PAGES [ro|rw] [shared|private] [/file [off]]");
    }
    MapAttrs attrs;
    std::string file;
    std::uint64_t offpages = 0;
    for (std::size_t i = 4; i < t.size(); ++i) {
      if (t[i] == "ro") {
        attrs.prot = sim::Prot::kRead;
      } else if (t[i] == "rw") {
        attrs.prot = sim::Prot::kReadWrite;
      } else if (t[i] == "shared") {
        attrs.shared = true;
      } else if (t[i] == "private") {
        attrs.shared = false;
      } else if (t[i][0] == '/') {
        file = t[i];
        if (i + 1 < t.size() && ParseU64(t[i + 1], &offpages)) {
          ++i;
        }
      } else {
        return fail("mmap: bad token " + t[i]);
      }
    }
    sim::Vaddr addr = 0;
    int err = file.empty()
                  ? st.k.MmapAnon(p, &addr, pages * sim::kPageSize, attrs)
                  : st.k.Mmap(p, &addr, pages * sim::kPageSize, file,
                              offpages * sim::kPageSize, attrs);
    if (err != sim::kOk) {
      *msg = "mmap failed: " + std::string(sim::ErrName(err));
      return err;
    }
    st.regs[reg] = addr;
    return sim::kOk;
  }

  auto it = st.regs.find(reg);
  if (it == st.regs.end()) {
    return fail("unknown register $" + reg);
  }
  sim::Vaddr base = it->second;

  if (op == "munmap" || op == "mlock" || op == "munlock" || op == "msync") {
    std::uint64_t pages = 0;
    if (t.size() != 4 || !ParseU64(t[3], &pages)) {
      return fail(op + " needs: " + op + " PROC $reg PAGES");
    }
    int err = sim::kOk;
    if (op == "munmap") {
      err = st.k.Munmap(p, base, pages * sim::kPageSize);
    } else if (op == "mlock") {
      err = st.k.Mlock(p, base, pages * sim::kPageSize);
    } else if (op == "munlock") {
      err = st.k.Munlock(p, base, pages * sim::kPageSize);
    } else {
      err = st.k.Msync(p, base, pages * sim::kPageSize);
    }
    if (err != sim::kOk) {
      *msg = op + " failed: " + std::string(sim::ErrName(err));
    }
    return err;
  }
  if (op == "sysctl") {
    int err = st.k.Sysctl(p, base, sim::kPageSize);
    if (err != sim::kOk) {
      *msg = "sysctl failed: " + std::string(sim::ErrName(err));
    }
    return err;
  }
  if (op == "write") {
    std::uint64_t off = 0;
    std::byte value{};
    if (t.size() != 5 || !ParseU64(t[3], &off) || !ParseByte(t[4], &value)) {
      return fail("write needs: write PROC $reg OFFPAGES BYTE");
    }
    int err = st.k.TouchWrite(p, base + off * sim::kPageSize, 1, value);
    if (err != sim::kOk) {
      *msg = "write failed: " + std::string(sim::ErrName(err));
    }
    return err;
  }
  if (op == "read" || op == "readf") {
    std::uint64_t off = 0;
    if (t.size() < 4 || !ParseU64(t[3], &off)) {
      return fail(op + " needs an offset");
    }
    std::byte want{};
    if (op == "read") {
      if (t.size() != 5 || !ParseByte(t[4], &want)) {
        return fail("read needs: read PROC $reg OFFPAGES BYTE");
      }
    } else {
      std::uint64_t fpage = 0;
      if (t.size() != 6 || !ParseU64(t[5], &fpage)) {
        return fail("readf needs: readf PROC $reg OFFPAGES /file FILEPAGE");
      }
      want = vfs::Filesystem::PatternByte(t[4], fpage * sim::kPageSize);
    }
    std::vector<std::byte> got(1);
    int err = st.k.ReadMem(p, base + off * sim::kPageSize, got);
    if (err != sim::kOk) {
      *msg = "read failed: " + std::string(sim::ErrName(err));
      return err;
    }
    if (got[0] != want) {
      std::ostringstream os;
      os << "read mismatch at $" << reg << "+" << off << ": got 0x" << std::hex
         << static_cast<unsigned>(got[0]) << " want 0x" << static_cast<unsigned>(want);
      *msg = os.str();
      return sim::kErrInval;
    }
    return sim::kOk;
  }
  return fail("unknown op " + op);
}

}  // namespace

ReplayResult ReplayTrace(Kernel& kernel, std::string_view trace) {
  ReplayResult res;
  ReplayState st{kernel, {}, {}};
  std::size_t pos = 0;
  int line_no = 0;
  while (pos <= trace.size()) {
    std::size_t nl = trace.find('\n', pos);
    std::string_view line =
        trace.substr(pos, nl == std::string_view::npos ? trace.size() - pos : nl - pos);
    ++line_no;
    pos = nl == std::string_view::npos ? trace.size() + 1 : nl + 1;
    std::vector<std::string> t = Tokens(line);
    if (t.empty()) {
      continue;
    }
    std::string msg;
    int err = ExecOp(st, t, &msg);
    if (err != sim::kOk) {
      res.err = err;
      res.line = line_no;
      res.message = msg;
      return res;
    }
    ++res.ops_executed;
  }
  return res;
}

}  // namespace kern
