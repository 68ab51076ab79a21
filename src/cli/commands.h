// fnda command-line interface.
//
// Every subcommand is a row in one ops::CommandTable: its options are
// typed, bounds-checked ParamSpec descriptors, so parsing, validation and
// `fnda help [command]` all come from the same declaration.  `run_cli`
// works over streams so tests can drive it without a process boundary,
// and maps outcomes to exit codes (0 ok, 1 runtime failure, 2 usage
// error).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fnda {

/// Entry point used by tools/fnda_cli.cpp and the tests.
int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err);

}  // namespace fnda
