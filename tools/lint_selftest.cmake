# Self-test for revise_lint, run as a ctest (see tools/CMakeLists.txt):
#   1. the known-good fixture tree lints clean;
#   2. the known-bad tree fails and reports every rule id;
#   3. the bad tree passes under an allowlist covering all findings;
#   4. a stale allowlist entry fails a clean tree, and an entry naming a
#      file that no longer exists gets the sharper missing-file message.
#
# Invoked as:
#   cmake -DLINT=<binary> -DFIXTURES=<dir> -P lint_selftest.cmake

function(expect_exit code description)
  if(NOT RUN_RESULT EQUAL ${code})
    message(FATAL_ERROR
            "${description}: expected exit ${code}, got ${RUN_RESULT}\n"
            "output:\n${RUN_OUTPUT}")
  endif()
endfunction()

function(expect_output needle description)
  string(FIND "${RUN_OUTPUT}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "${description}: expected output to mention '${needle}'\n"
            "output:\n${RUN_OUTPUT}")
  endif()
endfunction()

macro(run_lint)
  execute_process(COMMAND ${LINT} ${ARGN}
                  RESULT_VARIABLE RUN_RESULT
                  OUTPUT_VARIABLE RUN_OUTPUT
                  ERROR_VARIABLE RUN_OUTPUT)
endmacro()

# 1. Good tree is clean.
run_lint(--root=${FIXTURES}/tree_good)
expect_exit(0 "good tree")

# 2. Bad tree fails and every rule fires.
run_lint(--root=${FIXTURES}/tree_bad)
expect_exit(1 "bad tree")
foreach(rule unlimited-enumerate raw-thread raw-mutex include-guard
        check-side-effect bench-json-meta obs-name hot-kernel fuzz-corpus)
  expect_output("[${rule}]" "bad tree rule coverage")
endforeach()
# The obs-name rule also covers flight-recorder event names and profile
# counter keys, and rejects names that do not start with a lowercase
# letter.
expect_output("CacheEvict" "flight event name coverage")
expect_output("sat.Solves" "profile key coverage")
expect_output("9lives.retries" "leading digit coverage")
expect_output("_sat.solves" "leading underscore coverage")

# 3. Bad tree passes with a full allowlist.
run_lint(--root=${FIXTURES}/tree_bad
         --allowlist=${FIXTURES}/tree_bad_allowlist.txt)
expect_exit(0 "allowlisted bad tree")

# 4. A stale allowlist entry on a clean tree fails the run; an entry for
#    a file that does not exist is called out as missing, not just stale.
run_lint(--root=${FIXTURES}/tree_good
         --allowlist=${FIXTURES}/tree_good_stale_allowlist.txt)
expect_exit(1 "stale allowlist")
expect_output("stale allowlist entry" "stale allowlist message")
expect_output("references a missing file" "missing-file allowlist message")

message(STATUS "revise_lint self-test passed")
