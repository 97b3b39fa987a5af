# Helper functions shared by every per-layer CMakeLists.

# Applies the LAD_WERROR gate to one project target.  Only targets created
# through these helpers (plus lad_lint_core) opt in, so third-party code
# (FetchContent gtest) never breaks the -Werror build.
function(lad_apply_werror name)
  if(LAD_WERROR)
    target_compile_options(${name} PRIVATE
      $<$<CXX_COMPILER_ID:GNU,Clang,AppleClang>:-Werror>)
  endif()
endfunction()

# Applies the project warning set to one target.  The whole tree — every
# layer, test, tool, and example — compiles under -Wall -Wextra -Wshadow
# -Wconversion, so numeric narrowing and shadowed names must be spelled
# out everywhere, not just in the hot-path layers where the set started.
function(lad_apply_warnings name)
  if(LAD_WARNINGS)
    target_compile_options(${name} PRIVATE
      $<$<CXX_COMPILER_ID:GNU,Clang,AppleClang>:-Wall;-Wextra;-Wshadow;-Wconversion>)
  endif()
endfunction()

# lad_add_library(<name> SOURCES <cpp...> [DEPS <targets...>])
#
# Declares one static layer library rooted at src/.  Include paths and the
# C++ standard propagate PUBLIC-ly, so test/tool/example targets only need
# to link the layers they use and get the rest transitively.
function(lad_add_library name)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS" ${ARGN})
  add_library(${name} STATIC ${ARG_SOURCES})
  add_library(lad::${name} ALIAS ${name})
  target_include_directories(${name} PUBLIC "${PROJECT_SOURCE_DIR}/src")
  target_compile_features(${name} PUBLIC cxx_std_20)
  # __FILE__ (and so every LAD_REQUIRE location) is repo-relative, e.g.
  # src/util/string_util.cpp:60, in this library and everything linking it.
  target_compile_options(${name} PUBLIC
    $<$<CXX_COMPILER_ID:GNU,Clang,AppleClang>:-fmacro-prefix-map=${PROJECT_SOURCE_DIR}/=>)
  if(ARG_DEPS)
    target_link_libraries(${name} PUBLIC ${ARG_DEPS})
  endif()
  lad_apply_warnings(${name})
  lad_apply_werror(${name})
endfunction()

# lad_add_test(<name> [LABEL <unit|e2e>] SOURCES <cpp...> [DEPS <targets...>])
#
# One gtest binary per layer.  Individual TEST() cases are discovered and
# registered with CTest, all carrying the given label so `ctest -L unit`
# and `ctest -L e2e` select disjoint subsets.
function(lad_add_test name)
  cmake_parse_arguments(ARG "" "LABEL" "SOURCES;DEPS" ${ARGN})
  if(NOT ARG_LABEL)
    set(ARG_LABEL unit)
  endif()
  add_executable(${name} ${ARG_SOURCES})
  target_link_libraries(${name} PRIVATE
    lad_test_support ${ARG_DEPS} GTest::gtest GTest::gtest_main)
  lad_apply_warnings(${name})
  lad_apply_werror(${name})
  gtest_discover_tests(${name}
    PROPERTIES LABELS ${ARG_LABEL}
    DISCOVERY_TIMEOUT 120)
endfunction()

# lad_add_program(<name> SOURCES <cpp...> [DEPS <targets...>] [IN_ALL])
#
# Binaries stay out of the default build unless IN_ALL opts them in (the
# tools, and every example, since a CTest smoke test runs each one); the
# `examples` umbrella target builds the examples by name.
function(lad_add_program name)
  cmake_parse_arguments(ARG "IN_ALL" "" "SOURCES;DEPS" ${ARGN})
  if(ARG_IN_ALL)
    add_executable(${name} ${ARG_SOURCES})
  else()
    add_executable(${name} EXCLUDE_FROM_ALL ${ARG_SOURCES})
  endif()
  target_link_libraries(${name} PRIVATE ${ARG_DEPS})
  lad_apply_warnings(${name})
  lad_apply_werror(${name})
endfunction()
