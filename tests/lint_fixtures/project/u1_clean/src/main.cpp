#include "util/macro_only.h"
#include "util/orphan.h"

// macro_only_helper's only caller is this macro's replacement text.
#define MACRO_ONLY_VALUE() (macro_only_helper())

int main() { return orphan_helper() + MACRO_ONLY_VALUE(); }
