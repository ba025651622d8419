#include "src/arch/vmx_fields.h"

namespace neco {

int VmcsFieldIndexScalar(VmcsField field) {
  const auto table = VmcsFieldTable();
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i].field == field) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::string_view VmcsFieldName(VmcsField field) {
  const VmcsFieldInfo* info = FindVmcsField(field);
  return info != nullptr ? info->name : std::string_view("<unknown>");
}

}  // namespace neco
