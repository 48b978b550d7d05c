# [[nodiscard]] check: the compiler, not a linter, rejects a discarded
# self-test report, send/transfer verdict or decode/parse result.
#
#   cmake -DCXX=<compiler> -DREPO=<source dir> -P tools/nodiscard_check.cmake
#
# Compiles tools/lint_fixtures/nodiscard.cpp, whose lines tagged
# `// must-use: <name>` each call one must-use function bare. Fails unless
# the compile fails with exactly one -Wunused-result diagnostic on every
# tagged line, each tagged line calls the function it names, and no other
# line draws a diagnostic (the explicit (void) and static_cast<void>
# discards compile). Registered as the ctest case `lint.nodiscard`.

cmake_minimum_required(VERSION 3.16)
if(NOT CXX OR NOT REPO)
  message(FATAL_ERROR "lint.nodiscard: pass -DCXX=<compiler> -DREPO=<source dir>")
endif()

set(fixture "${REPO}/tools/lint_fixtures/nodiscard.cpp")
file(STRINGS "${fixture}" lines)
set(errors "")
set(expected "")
set(n 0)
foreach(line IN LISTS lines)
  math(EXPR n "${n} + 1")
  if(line MATCHES "// must-use: ([a-z_0-9]+)$")
    set(name "${CMAKE_MATCH_1}")
    if(NOT line MATCHES "[.:]${name}\\(")
      string(APPEND errors "  line ${n} is tagged ${name} but does not call it\n")
    endif()
    list(APPEND expected ${n})
    set(name_${n} ${name})
    set(seen_${n} 0)
  endif()
endforeach()

execute_process(
  COMMAND "${CXX}" -std=c++20 -fsyntax-only -Werror=unused-result
          -I "${REPO}/src" "${fixture}"
  RESULT_VARIABLE status
  ERROR_VARIABLE diagnostics
  OUTPUT_VARIABLE diagnostics_out)
string(APPEND diagnostics "${diagnostics_out}")
if(status EQUAL 0)
  string(APPEND errors "  the fixture compiled; every bare call must fail it\n")
endif()

string(REGEX MATCHALL "nodiscard\\.cpp:[0-9]+:[0-9]+: [a-z ]+:[^\n]*" found
       "${diagnostics}")
foreach(diag IN LISTS found)
  string(REGEX MATCH "^nodiscard\\.cpp:([0-9]+):" _ "${diag}")
  set(at ${CMAKE_MATCH_1})
  if(NOT at IN_LIST expected)
    string(APPEND errors "  unexpected diagnostic: ${diag}\n")
  elseif(NOT diag MATCHES "unused-result")
    string(APPEND errors "  ${name_${at}}: not an unused-result diagnostic: ${diag}\n")
  else()
    math(EXPR seen_${at} "${seen_${at}} + 1")
  endif()
endforeach()
set(names "")
foreach(at IN LISTS expected)
  if(NOT seen_${at} EQUAL 1)
    string(APPEND errors
           "  ${name_${at}} (line ${at}): ${seen_${at}} unused-result diagnostic(s), want 1\n")
  endif()
  list(APPEND names ${name_${at}})
endforeach()

if(NOT errors STREQUAL "")
  message(FATAL_ERROR "lint.nodiscard failed:\n${errors}\ncompiler output:\n${diagnostics}")
endif()
list(JOIN names " " names)
message(STATUS "lint.nodiscard: one unused-result error each for ${names}")
