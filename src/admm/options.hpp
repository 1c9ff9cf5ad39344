// Config-file binding for the ADM-G solver knobs.
//
// Every driver that reads solver settings from an INI file (the CLI, the
// simulator, ad-hoc tools) goes through options_from_config() so the
// recognized keys, defaults and validity guards live in exactly one place.
#pragma once

#include "admm/engine.hpp"
#include "util/config.hpp"

namespace ufc::admm {

/// Builds AdmgOptions from the INI [solver] section, starting from
/// `defaults` (missing keys keep the given defaults). Recognized keys:
/// solver.rho, solver.epsilon, solver.tolerance, solver.max_iterations,
/// solver.gaussian_back_substitution, solver.threads and
/// solver.acceleration (none | anderson). Out-of-range values and any other
/// solver.* key throw ufc::ContractViolation naming the offender.
AdmgOptions options_from_config(const Config& config,
                                AdmgOptions defaults = {});

}  // namespace ufc::admm
