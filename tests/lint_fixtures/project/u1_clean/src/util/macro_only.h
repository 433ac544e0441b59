#pragma once

inline int macro_only_helper() { return 7; }
