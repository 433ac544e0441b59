#include "shortcut/backend/backend.h"

#include "scenario/scenario.h"
#include "shortcut/backend/builtins.h"

namespace lcs::backend {

const std::vector<Backend>& backends() {
  static const std::vector<Backend> list = {
      make_hiz16_backend(), make_kkoi19_backend(), make_naive_backend()};
  return list;
}

const Backend* find_backend(std::string_view name) {
  for (const Backend& b : backends())
    if (b.name == name) return &b;
  return nullptr;
}

std::vector<std::string> applicable_backend_names(
    const scenario::Scenario& sc) {
  std::vector<std::string> names;
  for (const Backend& b : backends())
    if (b.applicable(sc).empty()) names.push_back(b.name);
  return names;
}

std::string registered_backend_names() {
  std::string names;
  for (const Backend& b : backends()) {
    if (!names.empty()) names += ", ";
    names += b.name;
  }
  return names;
}

}  // namespace lcs::backend
