#ifndef PARMONC_LINT_FIXTURE_CLEAN_H
#define PARMONC_LINT_FIXTURE_CLEAN_H

#include "parmonc/support/Status.h"

#include <string>

namespace parmonc {

/// A header that violates none of R2, R4, R5, R8 or R11.
[[nodiscard]] Status fixtureSave(const std::string &Path);

} // namespace parmonc

#endif // PARMONC_LINT_FIXTURE_CLEAN_H
