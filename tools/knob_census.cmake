# Knob census: every MGT_* environment knob is read in one place and
# documented in one place.
#
#   cmake -DREPO=<source dir> -P tools/knob_census.cmake
#
# Fails unless
#   (a) getenv is called in src/ only by src/util/env.cpp, and
#   (b) the MGT_* names passed as string literals to util::env_u64 /
#       util::env_flag in src/ are exactly the rows of README.md's
#       "Environment knobs" table.
# Registered as the ctest case `knobs.census`.

if(NOT REPO)
  message(FATAL_ERROR "knobs.census: pass -DREPO=<source dir>")
endif()

file(GLOB_RECURSE sources "${REPO}/src/*.cpp" "${REPO}/src/*.hpp")
set(errors "")
set(code_knobs "")
foreach(path IN LISTS sources)
  file(READ "${path}" text)
  file(RELATIVE_PATH rel "${REPO}" "${path}")
  if(text MATCHES "getenv[ \t]*\\(" AND NOT rel STREQUAL "src/util/env.cpp")
    string(APPEND errors "  ${rel} calls getenv; read knobs via util/env\n")
  endif()
  string(REGEX MATCHALL "env_(u64|flag)\\([ \t\n]*\"MGT_[A-Z0-9_]+\"" calls
         "${text}")
  foreach(call IN LISTS calls)
    string(REGEX REPLACE ".*\"(MGT_[A-Z0-9_]+)\"" "\\1" name "${call}")
    list(APPEND code_knobs "${name}")
  endforeach()
endforeach()

file(READ "${REPO}/README.md" readme)
string(REGEX MATCH "Environment knobs:\n\n(\\|[^\n]*\n)+" table "${readme}")
if(table STREQUAL "")
  string(APPEND errors "  README.md has no \"Environment knobs:\" table\n")
endif()
string(REGEX MATCHALL "\n\\| `MGT_[A-Z0-9_]+` \\|" rows "${table}")
set(doc_knobs "")
foreach(row IN LISTS rows)
  string(REGEX REPLACE ".*`(MGT_[A-Z0-9_]+)`.*" "\\1" name "${row}")
  list(APPEND doc_knobs "${name}")
endforeach()

list(REMOVE_DUPLICATES code_knobs)
list(SORT code_knobs)
list(REMOVE_DUPLICATES doc_knobs)
list(SORT doc_knobs)
if(NOT code_knobs STREQUAL doc_knobs)
  string(APPEND errors
         "  knobs read in src/: ${code_knobs}\n"
         "  knobs in README.md: ${doc_knobs}\n")
endif()

if(NOT errors STREQUAL "")
  message(FATAL_ERROR "knobs.census failed:\n${errors}")
endif()
message(STATUS "knobs.census: ${code_knobs}")
