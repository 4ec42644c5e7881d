#include "nn/module.h"

#include <stdexcept>
#include <unordered_set>

namespace mersit::nn {

namespace {

void walk_named(Module& m, const std::string& path, std::vector<NamedModuleRef>& out) {
  out.push_back({path, &m});
  std::vector<NamedChild> ch;
  m.collect_children(ch);
  for (const NamedChild& c : ch) {
    const std::string child_path = path.empty() ? c.name : path + "/" + c.name;
    walk_named(*c.module, child_path, out);
  }
}

void walk_hooked(Module& m, std::vector<Module*>& out) {
  if (m.quant_point()) out.push_back(&m);
  if (!m.runs_children()) return;
  std::vector<NamedChild> ch;
  m.collect_children(ch);
  for (const NamedChild& c : ch) walk_hooked(*c.module, out);
}

}  // namespace

std::vector<Module*> hooked_quant_points(Module& root) {
  std::vector<Module*> out;
  walk_hooked(root, out);
  return out;
}

std::vector<NamedModuleRef> named_modules(Module& root, const std::string& root_name) {
  std::vector<NamedModuleRef> out;
  walk_named(root, root_name, out);
  return out;
}

void assign_paths(Module& root, const std::string& root_name) {
  const std::vector<NamedModuleRef> named = named_modules(root, root_name);
  std::unordered_set<std::string> seen;
  for (const NamedModuleRef& ref : named) {
    if (!seen.insert(ref.path).second)
      throw std::logic_error("assign_paths: duplicate module path '" + ref.path +
                             "' (" + ref.module->name() +
                             ") — sibling names must be unique");
  }
  for (const NamedModuleRef& ref : named) ref.module->set_path(ref.path);
}

}  // namespace mersit::nn
