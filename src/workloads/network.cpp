// Request-handler analogs of the Table 7/8 network applications.
//
// Each program is split the way a forking server is: `server_init()` builds
// the tables the parent sets up before the accept loop (forked children
// inherit them — none of that cost lands on a request), and
// `handle_request()` is the work one forked child does for one request.
// `main()` runs both once so the programs also work standalone; the netsim
// harness calls server_init once and handle_request per simulated fork,
// reseeding the deterministic rand() for every request.
//
// Structural fidelity per app (matching Table 7/8's character):
//   Qpopper   - per-line response emission with dot-stuffing (local line
//               buffers in a hot helper).
//   Apache    - request parse, header build, chunked content copy.
//   Sendmail  - per-token address rewriting through several buffers; the
//               rewrite loop touches > 3 arrays (the paper's spilled-loop
//               outlier, with the worst latency penalty).
//   Wu-ftpd   - command parse + block-wise file send (lightest handler).
//   Pure-ftpd - same shape, smaller blocks.
//   Bind      - per-label DNS name decode, record scan, response encode.
#include "workloads/workloads.hpp"

namespace cash::workloads {

namespace {

const char* kQpopper = R"(
int maildrop[8192];
int msg_offset[32];
int msg_length[32];
int response[4096];

int server_init() {
  int msg; int i; int n;
  n = 0;
  for (msg = 0; msg < 32; msg++) {
    msg_offset[msg] = n;
    msg_length[msg] = 150 + (msg * 37) % 90;
    for (i = 0; i < msg_length[msg]; i++) {
      maildrop[n] = 32 + (n * 7) % 90;
      if (i % 30 == 29) { maildrop[n] = 10; }
      n++;
    }
  }
  return n;
}

int emit_line(int *drop, int off, int len, int rbase) {
  int line[96];
  int i; int sum;
  // Dot-stuffing: a leading '.' is doubled (RFC 1939).
  sum = 0;
  if (len > 0 && drop[off] == 46) {
    line[sum] = 46;
    sum++;
  }
  for (i = 0; i < len && sum < 94; i++) {
    line[sum] = drop[off + i];
    sum++;
  }
  line[sum] = 10;
  sum++;
  for (i = 0; i < sum; i++) {
    response[(rbase + i) % 4096] = line[i];
  }
  return sum;
}

int handle_request() {
  int cmds; int c; int msg; int off; int remaining; int linelen;
  int total; int i;
  total = 0;
  cmds = rand() % 6 + 3; // STAT, LIST, then RETR x k
  for (c = 0; c < cmds; c++) {
    msg = rand() % 32;
    off = msg_offset[msg];
    remaining = msg_length[msg];
    while (remaining > 0) {
      linelen = 30;
      if (remaining < 30) { linelen = remaining; }
      total = total + emit_line(maildrop, off, linelen, total % 2048);
      off = off + linelen;
      remaining = remaining - linelen;
    }
  }
  print_int(total);
  return total;
}

int main() {
  server_init();
  return handle_request();
}
)";

const char* kApache = R"(
int content[16384];
int mime_table[64];
int resp[8192];

int server_init() {
  int i;
  for (i = 0; i < 16384; i++) {
    content[i] = 32 + (i * 11) % 90;
  }
  for (i = 0; i < 64; i++) {
    mime_table[i] = i * 3;
  }
  return 0;
}

int parse_request(int *req, int *path, int n) {
  int i; int j;
  i = 0;
  while (i < n && req[i] != 32) { i++; }
  i++;
  j = 0;
  while (i < n && req[i] != 32 && j < 63) {
    path[j] = req[i];
    i++;
    j++;
  }
  return j;
}

int build_headers(int *out, int code, int length) {
  int hdr[64];
  int i; int sum;
  for (i = 0; i < 64; i++) {
    hdr[i] = (code * 3 + i * 7 + length) % 96 + 32;
  }
  sum = 0;
  for (i = 0; i < 64; i++) {
    out[i] = hdr[i];
    sum = sum + hdr[i];
  }
  return sum;
}

int send_chunk(int *out, int obase, int off, int len) {
  int chunk[64];
  int i; int sum;
  sum = 0;
  for (i = 0; i < len && i < 64; i++) {
    chunk[i] = content[(off + i) % 16384];
    sum = sum + chunk[i];
  }
  for (i = 0; i < len && i < 64; i++) {
    out[(obase + i) % 8192] = chunk[i];
  }
  return sum;
}

int handle_request() {
  int reqbuf[256];
  int path[64];
  int i; int n; int plen; int hash; int off; int len; int total; int sent;
  // "GET /xxxxx HTTP/1.0"
  n = 0;
  reqbuf[n] = 71; n++; reqbuf[n] = 69; n++; reqbuf[n] = 84; n++;
  reqbuf[n] = 32; n++;
  reqbuf[n] = 47; n++;
  len = rand() % 40 + 8;
  for (i = 0; i < len; i++) {
    reqbuf[n] = 97 + rand() % 26;
    n++;
  }
  reqbuf[n] = 32; n++;
  plen = parse_request(reqbuf, path, n);
  hash = 0;
  for (i = 0; i < plen; i++) {
    hash = (hash * 31 + path[i]) % 16384;
  }
  off = hash % 8192;
  len = 2048 + hash % 2048;
  total = build_headers(resp, 200, len);
  sent = 0;
  while (sent < len) {
    i = len - sent;
    if (i > 64) { i = 64; }
    total = (total + send_chunk(resp, 64 + sent % 4096, off + sent, i)) % 1000000;
    sent = sent + i;
  }
  print_int(total);
  return total;
}

int main() {
  server_init();
  return handle_request();
}
)";

const char* kSendmail = R"(
int alias_table[2048];
int rule_lhs[512];
int rule_rhs[512];

int server_init() {
  int i;
  for (i = 0; i < 2048; i++) {
    alias_table[i] = i % 7;
  }
  for (i = 0; i < 512; i++) {
    rule_lhs[i] = (i * 5) % 96;
    rule_rhs[i] = (i * 3) % 96;
  }
  return 0;
}

int rewrite_address(int *addr, int alen, int *out) {
  int work[128];
  int token[32];
  int i; int j; int t; int olen; int r; int pass;
  for (i = 0; i < alen && i < 128; i++) {
    work[i] = addr[i];
  }
  olen = 0;
  i = 0;
  while (i < alen && olen < 120) {
    t = 0;
    while (i < alen && work[i] != 46 && t < 31) {
      token[t] = work[i];
      t++;
      i++;
    }
    i++;
    r = 0;
    for (j = 0; j < t; j++) {
      r = (r * 17 + token[j]) % 512;
    }
    // Ruleset passes: this loop touches token, out, rule_lhs, rule_rhs and
    // work — more arrays than there are free segment registers.
    for (pass = 0; pass < 3; pass++) {
      for (j = 0; j < t; j++) {
        out[olen % 120] =
            (token[j] + rule_lhs[(r + pass) % 512]
             - rule_rhs[(r + j) % 512] + work[j % 128]) % 96 + 32;
      }
    }
    for (j = 0; j < t; j++) {
      out[olen] = (token[j] + rule_lhs[r] - rule_rhs[(r + j) % 512]) % 96 + 32;
      olen++;
    }
    out[olen] = 46;
    olen++;
  }
  return olen;
}

int check_alias(int *addr, int len) {
  int h; int i;
  h = 0;
  for (i = 0; i < len; i++) {
    h = (h * 13 + addr[i]) % 2048;
  }
  return alias_table[h];
}

int handle_request() {
  int from[128];
  int to[128];
  int rewritten[128];
  int body[256];
  int i; int flen; int tlen; int rlen; int total; int rcpt; int nrcpt;
  // MAIL FROM
  flen = rand() % 40 + 16;
  for (i = 0; i < flen; i++) {
    if (i % 8 == 7) {
      from[i] = 46;
    } else {
      from[i] = 97 + rand() % 26;
    }
  }
  total = check_alias(from, flen);
  rlen = rewrite_address(from, flen, rewritten);
  for (i = 0; i < rlen; i++) {
    total = total + rewritten[i];
  }
  // RCPT TO (1..4 recipients, each rewritten)
  nrcpt = rand() % 4 + 1;
  for (rcpt = 0; rcpt < nrcpt; rcpt++) {
    tlen = rand() % 30 + 12;
    for (i = 0; i < tlen; i++) {
      if (i % 6 == 5) {
        to[i] = 46;
      } else {
        to[i] = 97 + rand() % 26;
      }
    }
    total = total + check_alias(to, tlen);
    rlen = rewrite_address(to, tlen, rewritten);
    for (i = 0; i < rlen; i++) {
      total = total + rewritten[i];
    }
  }
  // DATA: header folding over a small body
  for (i = 0; i < 256; i++) {
    body[i] = 32 + (total + i * 19) % 90;
  }
  for (i = 0; i < 256; i++) {
    total = (total + body[i]) % 1000000;
  }
  print_int(total);
  return total;
}

int main() {
  server_init();
  return handle_request();
}
)";

const char* kWuFtpd = R"(
int filetable[4096];

int server_init() {
  int i;
  for (i = 0; i < 4096; i++) {
    filetable[i] = (i * 7) % 256;
  }
  return 0;
}

int normalize_path(int *path, int len, int *norm) {
  int i; int j;
  j = 0;
  for (i = 0; i < len; i++) {
    if (path[i] == 47 && i + 1 < len && path[i+1] == 47) {
      // collapse //
    } else {
      norm[j] = path[i];
      j++;
    }
  }
  return j;
}

int send_block(int off, int len) {
  int buf[128];
  int i; int sum;
  sum = 0;
  for (i = 0; i < len && i < 128; i++) {
    buf[i] = filetable[(off + i) % 4096];
    sum = sum + buf[i];
  }
  return sum;
}

int handle_request() {
  int path[64];
  int norm[64];
  int i; int len; int nlen; int hash; int total; int blocks;
  len = rand() % 40 + 10;
  for (i = 0; i < len; i++) {
    if (i % 7 == 3) {
      path[i] = 47;
    } else {
      path[i] = 97 + rand() % 26;
    }
  }
  nlen = normalize_path(path, len, norm);
  hash = 0;
  for (i = 0; i < nlen; i++) {
    hash = (hash * 31 + norm[i]) % 4096;
  }
  total = 0;
  blocks = 12 + hash % 24;
  for (i = 0; i < blocks; i++) {
    total = (total + send_block(hash + i * 128, 128)) % 1000000;
  }
  print_int(total);
  return total;
}

int main() {
  server_init();
  return handle_request();
}
)";

const char* kPureFtpd = R"(
int filetable[2048];

int server_init() {
  int i;
  for (i = 0; i < 2048; i++) {
    filetable[i] = (i * 11) % 256;
  }
  return 0;
}

int send_block(int off, int len) {
  int buf[48];
  int i; int sum;
  sum = 0;
  for (i = 0; i < len && i < 48; i++) {
    buf[i] = filetable[(off + i) % 2048];
    sum = sum + buf[i];
  }
  return sum;
}

int handle_request() {
  int path[64];
  int i; int len; int hash; int total; int blocks;
  len = rand() % 30 + 8;
  for (i = 0; i < len; i++) {
    path[i] = 97 + rand() % 26;
  }
  hash = 0;
  for (i = 0; i < len; i++) {
    hash = (hash * 37 + path[i]) % 2048;
  }
  total = 0;
  blocks = 10 + hash % 20;
  for (i = 0; i < blocks; i++) {
    total = (total + send_block(hash + i * 48, 48)) % 1000000;
  }
  print_int(total);
  return total;
}

int main() {
  server_init();
  return handle_request();
}
)";

const char* kBind = R"(
int zone_names[4096];
int zone_addrs[256];

int server_init() {
  int i;
  for (i = 0; i < 4096; i++) {
    zone_names[i] = 97 + (i * 13) % 26;
  }
  for (i = 0; i < 256; i++) {
    zone_addrs[i] = (i * 91) % 16581375;
  }
  return 0;
}

int decode_label(int *packet, int pos, int len, int *name, int npos) {
  int label[64];
  int i;
  for (i = 0; i < len; i++) {
    label[i] = packet[pos + i];
  }
  for (i = 0; i < len && npos + i < 63; i++) {
    name[npos + i] = label[i];
  }
  return len;
}

int lookup(int *name, int nlen) {
  int rec; int i; int diff; int best; int limit;
  best = 0 - 1;
  limit = nlen;
  if (limit > 16) { limit = 16; }
  for (rec = 0; rec < 128; rec++) {
    diff = 0;
    for (i = 0; i < limit; i++) {
      diff = diff + abs(zone_names[rec * 16 + i] - name[i]);
    }
    if (diff == 0) {
      best = rec;
      rec = 128;
    }
  }
  return best;
}

int encode_answer(int *name, int nlen, int addr, int *out) {
  int rr[96];
  int i; int sum;
  for (i = 0; i < nlen && i < 63; i++) {
    rr[i] = name[i];
  }
  rr[nlen] = addr % 256;
  rr[nlen + 1] = addr / 256 % 256;
  rr[nlen + 2] = addr / 65536 % 256;
  sum = 0;
  for (i = 0; i < nlen + 3; i++) {
    out[i] = rr[i];
    sum = sum + rr[i];
  }
  return sum;
}

int handle_request() {
  int query[128];
  int name[64];
  int answer[96];
  int i; int nlabels; int lab; int pos; int npos; int rec; int total;
  int len;
  nlabels = rand() % 4 + 2;
  pos = 0;
  for (lab = 0; lab < nlabels; lab++) {
    i = rand() % 7 + 3;
    query[pos] = i;
    pos++;
    for (; i > 0; i--) {
      query[pos] = 97 + rand() % 26;
      pos++;
    }
  }
  query[pos] = 0;
  pos++;
  // decode the wire-format name, label by label
  npos = 0;
  i = 0;
  while (i < pos && query[i] != 0 && npos < 60) {
    len = query[i];
    i++;
    npos = npos + decode_label(query, i, len, name, npos);
    i = i + len;
    name[npos] = 46;
    npos++;
  }
  rec = lookup(name, npos);
  total = 0;
  // answer + authority + additional sections
  for (i = 0; i < 3; i++) {
    if (rec >= 0) {
      total = total + encode_answer(name, npos, zone_addrs[(rec + i) % 256], answer);
    } else {
      total = total + encode_answer(name, npos, i, answer);
    }
  }
  for (i = 0; i < pos; i++) {
    total = (total + query[i] * 3) % 1000000;
  }
  print_int(total);
  return total;
}

int main() {
  server_init();
  return handle_request();
}
)";

} // namespace

const std::vector<Workload>& network_suite() {
  static const std::vector<Workload> kSuite = [] {
    std::vector<Workload> suite;
    // paper_cash_overhead_pct carries the paper's Table 8 latency penalty.
    suite.push_back({"Qpopper", "POP3 message retrieval", kQpopper, 0, 6.5, 0});
    suite.push_back({"Apache", "HTTP request handling", kApache, 0, 3.3, 0});
    suite.push_back(
        {"Sendmail", "SMTP address rewriting", kSendmail, 0, 9.8, 0});
    suite.push_back({"Wu-ftpd", "FTP file retrieval", kWuFtpd, 0, 2.5, 0});
    suite.push_back(
        {"Pure-ftpd", "FTP file retrieval (small)", kPureFtpd, 0, 3.3, 0});
    suite.push_back({"Bind", "DNS query resolution", kBind, 0, 4.4, 0});
    return suite;
  }();
  return kSuite;
}

} // namespace cash::workloads
