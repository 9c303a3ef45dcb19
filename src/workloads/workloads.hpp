#pragma once

#include <string>
#include <vector>

namespace cash::workloads {

// One benchmark program of the paper's evaluation, as MiniC source.
struct Workload {
  std::string name;        // the paper's label, e.g. "Matrix Multi."
  std::string description;
  std::string source;      // MiniC program
  // Paper-reported numbers for EXPERIMENTS.md comparisons (0 if the paper
  // gives none). GCC baseline in thousands of cycles; overheads in percent.
  double paper_gcc_kcycles{0};
  double paper_cash_overhead_pct{0};
  double paper_bcc_overhead_pct{0};
};

// Table 1 / Table 2 suite: six numerical kernels at the paper's data sizes
// (SVD 374x82, volume renderer 128^3 -> 256^2, FFT 64x64, Gaussian
// elimination 128, matrix multiplication 128, edge detection 1024x768).
const std::vector<Workload>& micro_suite();

// Tables 4-6 suite: synthetic analogs of Toast, Cjpeg, Quat, RayLab, Speex
// and Gif2png with matching loop/array structure (see DESIGN.md).
const std::vector<Workload>& macro_suite();

// Tables 7-8 suite: request handlers standing in for Qpopper, Apache,
// Sendmail, Wu-ftpd, Pure-ftpd and Bind. Each main() handles one request
// (the paper's process-per-request servers); the request is derived from
// the machine's RNG seed.
const std::vector<Workload>& network_suite();

// Parameterised kernels for the Table 3 scaling study.
std::string matmul_source(int n);
std::string gauss_source(int n);
std::string fft2d_source(int n); // n must be a power of two
std::string edge_source(int width, int height);
std::string volren_source(int vol_n, int img_n);
std::string svd_source(int rows, int cols, int iterations);

// A loop overrun for check elision: walk(p, n) reads p[0..n-1], first with
// n == 0, which a hoisted interval check must pass as an empty range, then
// with n == 101 on a 100-element array, which every checked mode catches.
extern const char* const kOverrunProbe;

// Replaces each "${KEY}" in `tmpl` by the matching value. Used by the
// workload generators; exposed for tests.
std::string expand_template(
    std::string tmpl,
    const std::vector<std::pair<std::string, std::string>>& substitutions);

} // namespace cash::workloads
