# Build file of the benchmark's traced mirror (hybench_mirror). run.py
# configures the repository with
#   -DCMAKE_PROJECT_hybridic_INCLUDE=<this file>
# so CMake reads it right after project(hybridic): the mirror is built in
# the same tree, with the same flags, from the same library targets as the
# programs under test. Target names resolve at generate time, after src/
# has defined them.
add_executable(hybench_mirror ${CMAKE_CURRENT_LIST_DIR}/mirror/main.cpp)
set_target_properties(hybench_mirror PROPERTIES
  CXX_STANDARD 20
  CXX_STANDARD_REQUIRED ON
  CXX_EXTENSIONS OFF)
target_include_directories(hybench_mirror PRIVATE ${CMAKE_CURRENT_SOURCE_DIR})
target_link_libraries(hybench_mirror PRIVATE
  hybridic_dse hybridic_search hybridic_tiers hybridic_store hybridic_apps
  hybridic_sys hybridic_core hybridic_prof hybridic_bus hybridic_noc
  hybridic_mem hybridic_sim hybridic_util hybridic_options)
