#include "procio.h"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

bool field_value(std::string_view text, std::string_view key,
                 uint64_t& out) {
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
        line[key.size()] != ':') {
      continue;
    }
    std::string_view v = line.substr(key.size() + 1);
    while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    return ec == std::errc() && end == v.data() + v.size();
  }
  return false;
}

}  // namespace

std::optional<IoCounters> parse_proc_io(std::string_view text) {
  IoCounters c;
  if (field_value(text, "rchar", c.rchar) &&
      field_value(text, "wchar", c.wchar) &&
      field_value(text, "syscr", c.syscr) &&
      field_value(text, "syscw", c.syscw) &&
      field_value(text, "read_bytes", c.read_bytes) &&
      field_value(text, "write_bytes", c.write_bytes)) {
    return c;
  }
  return std::nullopt;
}

IoCounters read_proc_io() {
  const int fd = ::open("/proc/self/io", O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open /proc/self/io");
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof buf);
  ::close(fd);
  if (n <= 0) throw std::runtime_error("cannot read /proc/self/io");
  const auto c = parse_proc_io(std::string_view(buf, static_cast<size_t>(n)));
  if (!c) throw std::runtime_error("cannot parse /proc/self/io");
  return *c;
}

IoCounters delta(const IoCounters& later, const IoCounters& earlier) {
  IoCounters d;
  d.rchar = later.rchar - earlier.rchar;
  d.wchar = later.wchar - earlier.wchar;
  d.syscr = later.syscr - earlier.syscr;
  d.syscw = later.syscw - earlier.syscw;
  d.read_bytes = later.read_bytes - earlier.read_bytes;
  d.write_bytes = later.write_bytes - earlier.write_bytes;
  return d;
}

std::optional<CpuTicks> parse_cpu_ticks(std::string_view text) {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  if (text.substr(0, 4) != "cpu ") return std::nullopt;
  text = text.substr(0, std::min(text.find('\n'), text.size()));
  size_t pos = 3;
  CpuTicks t;
  for (int column = 0; column < 8; ++column) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(text.data() + pos, text.data() + text.size(), v);
    if (ec != std::errc()) return std::nullopt;
    pos = static_cast<size_t>(end - text.data());
    t.total += v;
    t.steal = v;  // the eighth column is the last one read
  }
  return t;
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string line;
  std::getline(stat, line);
  return parse_cpu_ticks(line).value_or(CpuTicks{});
}

double steal_share(const CpuTicks& later, const CpuTicks& earlier) {
  const uint64_t total = later.total - earlier.total;
  if (total == 0) return 0;
  return static_cast<double>(later.steal - earlier.steal) /
         static_cast<double>(total);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  const std::string text((std::istreambuf_iterator<char>(status)),
                         std::istreambuf_iterator<char>());
  // "VmHWM:\t  123456 kB"
  const size_t at = text.find("VmHWM:");
  if (at == std::string::npos) throw std::runtime_error("no VmHWM");
  size_t pos = at + 6;
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  uint64_t kib = 0;
  const auto [end, ec] =
      std::from_chars(text.data() + pos, text.data() + text.size(), kib);
  if (ec != std::errc()) throw std::runtime_error("malformed VmHWM");
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace perfbench
