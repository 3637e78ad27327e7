#include "core/comm_classify.hpp"

namespace hybridic::core {

CommClass classify(const KernelQuantities& q) {
  CommClass c;
  const bool in_host = q.host_in.count() > 0;
  const bool in_kernel = q.kernel_in.count() > 0;
  const bool out_host = q.host_out.count() > 0;
  const bool out_kernel = q.kernel_out.count() > 0;

  if (in_kernel && in_host) {
    c.recv = RecvClass::kR3;
  } else if (in_kernel) {
    c.recv = RecvClass::kR1;
  } else {
    c.recv = RecvClass::kR2;
  }

  if (out_kernel && out_host) {
    c.send = SendClass::kS3;
  } else if (out_kernel) {
    c.send = SendClass::kS1;
  } else {
    c.send = SendClass::kS2;
  }
  return c;
}

std::string to_string(RecvClass r) {
  switch (r) {
    case RecvClass::kR1:
      return "R1";
    case RecvClass::kR2:
      return "R2";
    case RecvClass::kR3:
      return "R3";
  }
  return "R?";
}

std::string to_string(SendClass s) {
  switch (s) {
    case SendClass::kS1:
      return "S1";
    case SendClass::kS2:
      return "S2";
    case SendClass::kS3:
      return "S3";
  }
  return "S?";
}

std::string to_string(CommClass c) {
  std::string text = "{";
  text += to_string(c.recv);
  text += ',';
  text += to_string(c.send);
  text += '}';
  return text;
}

}  // namespace hybridic::core
