# Lint census: the repo's determinism, unit and contract rules as regexes
# over comment- and string-stripped source.
#
#   cmake -DREPO=<source dir> -P tools/lint_census.cmake
#
# Scans every .cpp/.hpp/.h under src/, tests/, bench/, examples/ and tools/
# (except tools/lint_fixtures/, whose files break the rules on purpose) and
# fails on any finding. A finding is suppressed by `lint:allow(<rule>)` in a
# comment on its line or on the line above; give the reason beside it.
# Registered as the ctest case `lint.census`; the `lint.census.<rule>` cases
# run it over tools/lint_fixtures/.
#
# Matching is per line after stripping comments, string and character
# literals, #include/#pragma lines and digit separators, so a call split
# across lines (`rand\n(`) is not seen. The catch rules and
# no-wallclock-metric read up to 8 following lines to reach the handler
# body or the closing parenthesis. Raw string literals spanning lines are
# not understood.

cmake_minimum_required(VERSION 3.16)
if(NOT REPO)
  message(FATAL_ERROR "lint.census: pass -DREPO=<source dir>")
endif()

set(W "A-Za-z0-9_")
set(B "(^|[^${W}])")  # token start
set(E "([^${W}]|$)")  # token end
set(call "[ \t]*\\(")
# The previous token is not `.` or `->` (a member call); `unqualified`
# also rules out `::`.
set(free "(^[ \t]*|[${W}][ \t]+|[^${W}.> \t][ \t]*|([^-]|^)>[ \t]*)")
set(unqualified
    "(^[ \t]*|[${W}][ \t]+|[^${W}.>: \t][ \t]*|([^-]|^)>[ \t]*|([^:]|^):[ \t]*)")
set(clocks "steady_clock|system_clock|high_resolution_clock|clock_gettime|gettimeofday|rdtsc|__rdtsc")

# rule(<id> <scope> <regex> <message>), scope being all (every scanned
# directory), not-bench, src, or src-hdr (headers under src/).
set(rules "")
function(rule id scope regex message)
  set(rules ${rules} ${id} PARENT_SCOPE)
  set(scope_${id} ${scope} PARENT_SCOPE)
  set(regex_${id} "${regex}" PARENT_SCOPE)
  set(message_${id} "${message}" PARENT_SCOPE)
endfunction()

rule(no-random-device all "${B}random_device${E}"
     "std::random_device is non-deterministic; seed an mgt::Rng explicitly")
rule(no-rand all "${free}s?rand${call}"
     "rand()/srand() use hidden global state; use mgt::Rng streams")
rule(no-time not-bench "${free}time${call}"
     "time() reads the wall clock; only bench/ may time itself")
rule(no-wall-clock not-bench "${B}(system_clock|steady_clock)${E}"
     "std::chrono wall clocks break determinism; only bench/ may time itself")
rule(no-unordered-iter all "${B}unordered_(map|set|multimap|multiset)${E}"
     "unordered containers iterate in unspecified order; use an ordered one")
rule(no-assert all "${unqualified}assert${call}"
     "assert() compiles out under NDEBUG; use MGT_CHECK")
rule(no-float src "${B}float${E}"
     "float narrows ps-resolution math; use double or a strong unit type")
rule(no-using-namespace-header src-hdr "${B}using[ \t]+namespace${E}"
     "'using namespace' in a header pollutes every includer")
rule(unit-suffix-double src-hdr
     "${B}double([ \t*&]+|[ \t*&]+const)*[ \t*&]+[A-Za-z_][${W}]*_(ps|mv|gbps|ghz|ui)[ \t]*([^${W}( \t]|$)"
     "raw double with a unit-suffixed name; use a strong type from util/units.hpp")
rule(no-unbounded-wait src "(\\.|->)[ \t]*(wait|join|acquire)${call}"
     "blocking wait/join/acquire has no deadline; bound it or justify it")
# These three read a window of lines starting at the match (window_fires).
set(window_rules no-catch-ignore catch-by-reference no-wallclock-metric)
rule(no-catch-ignore src "${B}catch[ \t\n]*\\("
     "empty catch block swallows the exception; record or translate it")
rule(catch-by-reference src "${B}catch[ \t\n]*\\("
     "catching by value slices the exception; catch by const reference")
rule(no-wallclock-metric all
     "${free}(add_counter|set_gauge|observe|record_span)${call}|${B}(counter|gauge|histogram)${call}"
     "a wall-clock value feeds an obs metric; wall time belongs in ProfileScope")

# Removes comments, literals, #include/#pragma lines and digit separators,
# keeping every newline so line numbers survive.
function(strip_source text out)
  string(REGEX REPLACE "([0-9])'([0-9])" "\\1\\2" text "${text}")
  string(REGEX REPLACE "([0-9])'([0-9])" "\\1\\2" text "${text}")
  set(lit "\"([^\"\\\\\n]|\\\\.)*\"|'([^'\\\\\n]|\\\\.)*'")
  # A line's code before its first comment opener: literals may hold `//`.
  set(code "(^|\n)(([^\"'/\n]|/[^/*\n]|${lit})*)")
  set(prev "")
  while(NOT prev STREQUAL text)
    set(prev "${text}")
    string(REGEX REPLACE "${code}/\\*([^*\n]|\\*+[^*/\n])*\\*+/" "\\1\\2 "
           text "${text}")
  endwhile()
  while(text MATCHES "${code}/\\*")
    # A /* */ comment spanning lines: keep only its newlines.
    string(REGEX MATCH "${code}/\\*" head "${text}")
    string(FIND "${text}" "${head}" begin)
    string(LENGTH "${head}" len)
    math(EXPR begin "${begin} + ${len} - 2")
    string(SUBSTRING "${text}" ${begin} -1 rest)
    string(FIND "${rest}" "*/" len)
    if(len EQUAL -1)
      string(LENGTH "${rest}" len)
    else()
      math(EXPR len "${len} + 2")
    endif()
    string(SUBSTRING "${rest}" 0 ${len} comment)
    string(REGEX REPLACE "[^\n]" "" comment "${comment}")
    string(SUBSTRING "${text}" 0 ${begin} before)
    string(SUBSTRING "${rest}" ${len} -1 rest)
    set(text "${before} ${comment}${rest}")
  endwhile()
  string(REGEX REPLACE "${code}//[^\n]*" "\\1\\2" text "${text}")
  string(REGEX REPLACE "${lit}" "\"\"" text "${text}")
  string(REGEX REPLACE "(^|\n)[ \t]*#[ \t]*(include|pragma)[^\n]*" "\\1"
         text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

# Splits text into a list of lines, each prefixed by a space so no element
# is empty; list-special characters are swapped for control bytes.
string(ASCII 1 esc_semicolon)
string(ASCII 2 esc_open)
string(ASCII 3 esc_close)
string(ASCII 4 esc_backslash)
function(split_lines text out)
  string(REPLACE "\\" "${esc_backslash}" text "${text}")
  string(REPLACE ";" "${esc_semicolon}" text "${text}")
  string(REPLACE "[" "${esc_open}" text "${text}")
  string(REPLACE "]" "${esc_close}" text "${text}")
  string(REPLACE "\n" "; " text " ${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

# Given the text right after an opening parenthesis, returns what lies
# before its matching `)` and what follows it.
function(balanced text inside after)
  set(depth 1)
  set(taken "")
  while(depth GREATER 0 AND text MATCHES "^([^()]*)([()])(.*)$")
    string(APPEND taken "${CMAKE_MATCH_1}")
    set(paren "${CMAKE_MATCH_2}")
    set(text "${CMAKE_MATCH_3}")
    if(paren STREQUAL "(")
      math(EXPR depth "${depth} + 1")
    else()
      math(EXPR depth "${depth} - 1")
    endif()
    if(depth GREATER 0)
      string(APPEND taken "${paren}")
    endif()
  endwhile()
  set(${inside} "${taken}" PARENT_SCOPE)
  set(${after} "${text}" PARENT_SCOPE)
endfunction()

# Whether the window (a line and the lines after it, newline-joined) breaks
# `rule` at a match starting on its first line.
function(window_fires rule window out)
  set(fires FALSE)
  if(rule STREQUAL "no-catch-ignore")
    if(window MATCHES
       "^[^\n]*${B}catch[ \t\n]*\\([^()]*\\)[ \t\n]*{[ \t\n]*}")
      set(fires TRUE)
    endif()
  elseif(rule STREQUAL "catch-by-reference")
    # `...`, `&` and `*` declarations do not slice.
    if(window MATCHES "^[^\n]*${B}catch[ \t\n]*\\([^().&*]*\\)")
      set(fires TRUE)
    endif()
  elseif(rule STREQUAL "no-wallclock-metric")
    # Each sink on the first line, right to left: a free obs sink, or
    # `.add/.set/.observe` chained on a counter/gauge/histogram accessor.
    string(REGEX MATCH "^[^\n]*" head "${window}")
    set(sink_free "${free}(add_counter|set_gauge|observe|record_span)${call}")
    set(sink_chained "${B}(counter|gauge|histogram)${call}")
    foreach(sink "${sink_free}" "${sink_chained}")
      set(left "${head}")
      while(NOT fires AND left MATCHES "^(.*)(${sink})")
        set(left "${CMAKE_MATCH_1}")
        string(LENGTH "${CMAKE_MATCH_0}" at)
        string(SUBSTRING "${window}" ${at} -1 rest)
        balanced("${rest}" args rest)
        if(sink STREQUAL sink_chained)
          if(NOT rest MATCHES "^[ \t\n]*(\\.|->)[ \t\n]*(add|set|observe)[ \t\n]*\\((.*)$")
            continue()
          endif()
          balanced("${CMAKE_MATCH_3}" args rest)
        endif()
        if(args MATCHES "${B}(${clocks})${E}|${free}time${call}")
          set(fires TRUE)
        endif()
      endwhile()
    endforeach()
  endif()
  set(${out} ${fires} PARENT_SCOPE)
endfunction()

set(roots src tests bench examples tools)
set(globs "")
foreach(root IN LISTS roots)
  list(APPEND globs "${REPO}/${root}/*.cpp" "${REPO}/${root}/*.hpp"
       "${REPO}/${root}/*.h")
endforeach()
file(GLOB_RECURSE sources ${globs})

set(files 0)
set(findings "")
set(count 0)
foreach(path IN LISTS sources)
  file(RELATIVE_PATH rel "${REPO}" "${path}")
  if(rel MATCHES "^tools/lint_fixtures/")
    continue()
  endif()
  math(EXPR files "${files} + 1")
  string(REGEX MATCH "^[^/]+" top "${rel}")
  set(scopes all)
  if(NOT top STREQUAL "bench")
    list(APPEND scopes not-bench)
  endif()
  if(top STREQUAL "src")
    list(APPEND scopes src)
    if(rel MATCHES "\\.(hpp|h)$")
      list(APPEND scopes src-hdr)
    endif()
  endif()

  file(READ "${path}" raw)
  strip_source("${raw}" code)
  set(hits "")
  foreach(id IN LISTS rules)
    if(scope_${id} IN_LIST scopes AND code MATCHES "${regex_${id}}")
      list(APPEND hits ${id})
    endif()
  endforeach()
  if(hits STREQUAL "")
    continue()
  endif()

  split_lines("${code}" lines)
  set(raw_lines "")
  set(n 0)
  foreach(line IN LISTS lines)
    math(EXPR n "${n} + 1")
    foreach(id IN LISTS hits)
      if(NOT line MATCHES "${regex_${id}}")
        continue()
      endif()
      if(id IN_LIST window_rules)
        math(EXPR first "${n} - 1")
        list(SUBLIST lines ${first} 9 window)
        list(JOIN window "\n" window)
        window_fires(${id} "${window}" fires)
        if(NOT fires)
          continue()
        endif()
      endif()
      if(raw_lines STREQUAL "")
        split_lines("${raw}" raw_lines)
      endif()
      math(EXPR here "${n} - 1")
      list(GET raw_lines ${here} marked)
      if(n GREATER 1)
        math(EXPR above "${n} - 2")
        list(GET raw_lines ${above} above)
        string(APPEND marked "\n${above}")
      endif()
      if(marked MATCHES "${B}lint:allow\\(([^)]*,)?[ \t]*${id}[ \t]*(,[^)]*)?\\)")
        continue()
      endif()
      string(APPEND findings "  ${rel}:${n}: [${id}] ${message_${id}}\n")
      math(EXPR count "${count} + 1")
    endforeach()
  endforeach()
endforeach()

if(count GREATER 0)
  message(FATAL_ERROR
          "lint.census: ${count} finding(s) in ${files} files\n${findings}")
endif()
message(STATUS "lint.census: 0 findings in ${files} files")
