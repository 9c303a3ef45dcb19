// The six numerical kernels of Table 1, as MiniC programs at the paper's
// data-set sizes. Each prints a checksum that the test suite validates
// against a native C++ reference implementation.
#include "workloads/workloads.hpp"

#include <string>

namespace cash::workloads {

std::string expand_template(
    std::string tmpl,
    const std::vector<std::pair<std::string, std::string>>& substitutions) {
  for (const auto& [key, value] : substitutions) {
    const std::string needle = "${" + key + "}";
    std::size_t at = 0;
    while ((at = tmpl.find(needle, at)) != std::string::npos) {
      tmpl.replace(at, needle.size(), value);
      at += value.size();
    }
  }
  return tmpl;
}

namespace {
std::string num(long long v) { return std::to_string(v); }
} // namespace

// ---------------------------------------------------------------------------
// Matrix multiplication, C = A x B, N x N floats.
// ---------------------------------------------------------------------------
std::string matmul_source(int n) {
  return expand_template(R"(
float A[${NN}]; float B[${NN}]; float C[${NN}];
int main() {
  int i; int j; int k; float s; float sum;
  for (i = 0; i < ${N}; i++) {
    for (j = 0; j < ${N}; j++) {
      A[i*${N}+j] = (i*7+j*13) % 17 * 0.25;
      B[i*${N}+j] = (i*3+j*5) % 11 * 0.5;
    }
  }
  for (i = 0; i < ${N}; i++) {
    for (j = 0; j < ${N}; j++) {
      s = 0.0;
      for (k = 0; k < ${N}; k++) {
        s = s + A[i*${N}+k] * B[k*${N}+j];
      }
      C[i*${N}+j] = s;
    }
  }
  sum = 0.0;
  for (i = 0; i < ${NN}; i++) {
    sum = sum + C[i];
  }
  print_float(sum);
  return 0;
}
)",
                         {{"N", num(n)}, {"NN", num(1LL * n * n)}});
}

// ---------------------------------------------------------------------------
// Gaussian elimination with back substitution on a diagonally dominant
// system (no pivoting needed), N x N.
// ---------------------------------------------------------------------------
std::string gauss_source(int n) {
  return expand_template(R"(
float A[${NN}]; float b[${N}]; float x[${N}];
int main() {
  int i; int j; int k; float factor; float s; float sum;
  for (i = 0; i < ${N}; i++) {
    for (j = 0; j < ${N}; j++) {
      A[i*${N}+j] = (i*5+j*3) % 7 * 0.125;
    }
    A[i*${N}+i] = A[i*${N}+i] + ${N}.0;
    b[i] = (i % 13) * 0.5;
  }
  for (k = 0; k < ${N} - 1; k++) {
    for (i = k + 1; i < ${N}; i++) {
      factor = A[i*${N}+k] / A[k*${N}+k];
      for (j = k; j < ${N}; j++) {
        A[i*${N}+j] = A[i*${N}+j] - factor * A[k*${N}+j];
      }
      b[i] = b[i] - factor * b[k];
    }
  }
  for (i = ${N} - 1; i >= 0; i--) {
    s = b[i];
    for (j = i + 1; j < ${N}; j++) {
      s = s - A[i*${N}+j] * x[j];
    }
    x[i] = s / A[i*${N}+i];
  }
  sum = 0.0;
  for (i = 0; i < ${N}; i++) {
    sum = sum + x[i];
  }
  print_float(sum);
  return 0;
}
)",
                         {{"N", num(n)}, {"NN", num(1LL * n * n)}});
}

// ---------------------------------------------------------------------------
// 2-D FFT: iterative radix-2 Cooley-Tukey over every row, then every
// column, of an N x N complex image (N a power of two).
// ---------------------------------------------------------------------------
std::string fft2d_source(int n) {
  return expand_template(R"(
float re[${NN}]; float im[${NN}];

void fft1(float *xr, float *xi, int off, int stride, int n) {
  int i; int j; int k; int m; int half; int pos; int part;
  float wr; float wi; float ur; float ui; float tr; float ti; float ang;
  j = 0;
  for (i = 0; i < n - 1; i++) {
    if (i < j) {
      pos = off + i * stride;
      part = off + j * stride;
      tr = xr[pos]; xr[pos] = xr[part]; xr[part] = tr;
      ti = xi[pos]; xi[pos] = xi[part]; xi[part] = ti;
    }
    k = n / 2;
    while (k <= j) {
      j = j - k;
      k = k / 2;
    }
    j = j + k;
  }
  for (m = 2; m <= n; m = m * 2) {
    half = m / 2;
    for (k = 0; k < half; k++) {
      ang = 0.0 - 6.2831853 * k / m;
      wr = cos(ang);
      wi = sin(ang);
      for (i = k; i < n; i = i + m) {
        pos = off + i * stride;
        part = pos + half * stride;
        ur = xr[pos];
        ui = xi[pos];
        tr = wr * xr[part] - wi * xi[part];
        ti = wr * xi[part] + wi * xr[part];
        xr[pos] = ur + tr;
        xi[pos] = ui + ti;
        xr[part] = ur - tr;
        xi[part] = ui - ti;
      }
    }
  }
}

int main() {
  int r; int c; int i; float sum;
  for (r = 0; r < ${N}; r++) {
    for (c = 0; c < ${N}; c++) {
      re[r*${N}+c] = (r*11+c*17) % 23 * 0.125;
      im[r*${N}+c] = 0.0;
    }
  }
  for (r = 0; r < ${N}; r++) {
    fft1(re, im, r * ${N}, 1, ${N});
  }
  for (c = 0; c < ${N}; c++) {
    fft1(re, im, c, ${N}, ${N});
  }
  sum = 0.0;
  for (i = 0; i < ${NN}; i++) {
    sum = sum + fabs(re[i]) + fabs(im[i]);
  }
  print_float(sum / ${NN}.0);
  return 0;
}
)",
                         {{"N", num(n)}, {"NN", num(1LL * n * n)}});
}

// ---------------------------------------------------------------------------
// Sobel edge detection with thresholding, W x H integer image.
// ---------------------------------------------------------------------------
std::string edge_source(int width, int height) {
  return expand_template(R"(
int img[${WH}]; int out[${WH}]; int lut[2048];
int main() {
  int x; int y; int gx; int gy; int mag; int count; int i;
  for (i = 0; i < 2048; i++) {
    if (i > 255) {
      lut[i] = 255;
    } else {
      lut[i] = i;
    }
  }
  for (y = 0; y < ${H}; y++) {
    for (x = 0; x < ${W}; x++) {
      img[y*${W}+x] = (x*31 + y*17) % 256;
    }
  }
  for (y = 1; y < ${H} - 1; y++) {
    for (x = 1; x < ${W} - 1; x++) {
      gx = img[(y-1)*${W}+(x+1)] + 2*img[y*${W}+(x+1)] + img[(y+1)*${W}+(x+1)]
         - img[(y-1)*${W}+(x-1)] - 2*img[y*${W}+(x-1)] - img[(y+1)*${W}+(x-1)];
      gy = img[(y+1)*${W}+(x-1)] + 2*img[(y+1)*${W}+x] + img[(y+1)*${W}+(x+1)]
         - img[(y-1)*${W}+(x-1)] - 2*img[(y-1)*${W}+x] - img[(y-1)*${W}+(x+1)];
      mag = abs(gx) + abs(gy);
      out[y*${W}+x] = lut[mag];
    }
  }
  count = 0;
  for (i = 0; i < ${WH}; i++) {
    count = count + out[i];
  }
  print_int(count);
  return 0;
}
)",
                         {{"W", num(width)},
                          {"H", num(height)},
                          {"WH", num(1LL * width * height)}});
}

// ---------------------------------------------------------------------------
// Volume renderer: orthographic ray casting with front-to-back alpha
// compositing over a VOL^3 density volume onto an IMG^2 image plane.
// ---------------------------------------------------------------------------
std::string volren_source(int vol_n, int img_n) {
  const int scale = img_n / vol_n > 0 ? img_n / vol_n : 1;
  return expand_template(R"(
float vol[${VVV}]; float img[${II}];
int main() {
  int x; int y; int z; int px; int py; int vx; int vy; int i;
  float density; float alpha; float acc; float trans; float sum;
  for (z = 0; z < ${V}; z++) {
    for (y = 0; y < ${V}; y++) {
      for (x = 0; x < ${V}; x++) {
        vol[(z*${V}+y)*${V}+x] = (x*3 + y*5 + z*7) % 32 * 0.01;
      }
    }
  }
  for (py = 0; py < ${I}; py++) {
    for (px = 0; px < ${I}; px++) {
      vx = px / ${S};
      vy = py / ${S};
      acc = 0.0;
      trans = 1.0;
      z = 0;
      while (z < ${V} && trans > 0.02) {
        density = vol[(z*${V}+vy)*${V}+vx];
        alpha = density * 0.4;
        acc = acc + trans * alpha;
        trans = trans * (1.0 - alpha);
        z++;
      }
      img[py*${I}+px] = acc;
    }
  }
  sum = 0.0;
  for (i = 0; i < ${II}; i++) {
    sum = sum + img[i];
  }
  print_float(sum / ${II}.0);
  return 0;
}
)",
                         {{"V", num(vol_n)},
                          {"VVV", num(1LL * vol_n * vol_n * vol_n)},
                          {"I", num(img_n)},
                          {"II", num(1LL * img_n * img_n)},
                          {"S", num(scale)}});
}

// ---------------------------------------------------------------------------
// SVD: largest singular triplet of an M x N matrix by power iteration on
// A^T A (the numerical core of SVDPACK's Lanczos approach).
// ---------------------------------------------------------------------------
std::string svd_source(int rows, int cols, int iterations) {
  return expand_template(R"(
float A[${MN}]; float u[${M}]; float v[${N}]; float w[${N}];
int main() {
  int i; int j; int it; float s; float norm; float sigma;
  for (i = 0; i < ${M}; i++) {
    for (j = 0; j < ${N}; j++) {
      A[i*${N}+j] = ((i*13 + j*7) % 19) * 0.1 - 0.9;
    }
  }
  for (j = 0; j < ${N}; j++) {
    v[j] = 1.0 / ${N}.0 * (j % 3 + 1);
  }
  for (it = 0; it < ${ITERS}; it++) {
    for (i = 0; i < ${M}; i++) {
      s = 0.0;
      for (j = 0; j < ${N}; j++) {
        s = s + A[i*${N}+j] * v[j];
      }
      u[i] = s;
    }
    for (j = 0; j < ${N}; j++) {
      s = 0.0;
      for (i = 0; i < ${M}; i++) {
        s = s + A[i*${N}+j] * u[i];
      }
      w[j] = s;
    }
    norm = 0.0;
    for (j = 0; j < ${N}; j++) {
      norm = norm + w[j] * w[j];
    }
    norm = sqrt(norm);
    for (j = 0; j < ${N}; j++) {
      v[j] = w[j] / norm;
    }
  }
  sigma = 0.0;
  for (i = 0; i < ${M}; i++) {
    s = 0.0;
    for (j = 0; j < ${N}; j++) {
      s = s + A[i*${N}+j] * v[j];
    }
    sigma = sigma + s * s;
  }
  print_float(sqrt(sigma));
  return 0;
}
)",
                         {{"M", num(rows)},
                          {"N", num(cols)},
                          {"MN", num(1LL * rows * cols)},
                          {"ITERS", num(iterations)}});
}

const std::vector<Workload>& micro_suite() {
  static const std::vector<Workload> kSuite = [] {
    std::vector<Workload> suite;
    suite.push_back({"SVDPACKC",
                     "singular value decomposition, 374x82 matrix",
                     svd_source(374, 82, 40), 5291993, 1.8, 120.0});
    suite.push_back({"Vol. Render.",
                     "ray-casting volume renderer, 128^3 -> 256^2",
                     volren_source(128, 256), 425029, 3.3, 126.4});
    suite.push_back({"2D FFT", "2-D fast Fourier transform, 64x64",
                     fft2d_source(64), 25870, 3.9, 72.2});
    suite.push_back({"Gaus. Elim.", "Gaussian elimination, 128x128",
                     gauss_source(128), 46961, 1.6, 92.4});
    suite.push_back({"Matrix Multi.", "matrix multiplication, 128x128",
                     matmul_source(128), 62861, 1.5, 143.8});
    suite.push_back({"Edge Detect", "Sobel edge detection, 1024x768",
                     edge_source(1024, 768), 806514, 2.2, 83.8});
    return suite;
  }();
  return kSuite;
}

const char* const kOverrunProbe = R"(
int a[100];
int walk(int *p, int n) {
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i = i + 1) {
    s = s + p[i];
  }
  return s;
}
int main() {
  print_int(walk(a, 0));
  print_int(walk(a, 101));
  return 0;
}
)";

} // namespace cash::workloads
