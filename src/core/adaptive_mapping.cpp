#include "core/adaptive_mapping.hpp"

namespace hybridic::core {

InterconnectClass adaptive_map(CommClass c) {
  // Table I, row by row.
  //   {R1,S1}                      -> {K2,M2}
  //   {R1,S2}, {R3,S2}             -> {K1,M3}
  //   {R1,S3}, {R3,S1}, {R3,S3}    -> {K2,M3}
  //   {R2,S1}, {R2,S3}             -> {K2,M1}
  //   {R2,S2}                      -> {K1,M1}
  using enum RecvClass;
  using enum SendClass;

  if (c.recv == kR1 && c.send == kS1) {
    return {KernelConn::kK2, MemConn::kM2};
  }
  if ((c.recv == kR1 || c.recv == kR3) && c.send == kS2) {
    return {KernelConn::kK1, MemConn::kM3};
  }
  if ((c.recv == kR1 && c.send == kS3) ||
      (c.recv == kR3 && (c.send == kS1 || c.send == kS3))) {
    return {KernelConn::kK2, MemConn::kM3};
  }
  if (c.recv == kR2 && (c.send == kS1 || c.send == kS3)) {
    return {KernelConn::kK2, MemConn::kM1};
  }
  // {R2,S2}
  return {KernelConn::kK1, MemConn::kM1};
}

bool is_feasible(InterconnectClass ic) {
  return !(ic.kernel == KernelConn::kK1 && ic.memory == MemConn::kM2);
}

std::string to_string(KernelConn k) {
  return k == KernelConn::kK1 ? "K1" : "K2";
}

std::string to_string(MemConn m) {
  switch (m) {
    case MemConn::kM1:
      return "M1";
    case MemConn::kM2:
      return "M2";
    case MemConn::kM3:
      return "M3";
  }
  return "M?";
}

std::string to_string(InterconnectClass ic) {
  std::string text = "{";
  text += to_string(ic.kernel);
  text += ',';
  text += to_string(ic.memory);
  text += '}';
  return text;
}

}  // namespace hybridic::core
